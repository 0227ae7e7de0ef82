package datastore

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"campuslab/internal/traffic"
)

// Tier benchmarks (DESIGN.md §14):
//
//	go test -bench='BenchmarkSeal|BenchmarkSealTrip|BenchmarkEncodeSegment|BenchmarkSegmentInflate|BenchmarkSegmentQuery|BenchmarkColdSelect|BenchmarkColdCount|BenchmarkEvictBefore' ./internal/datastore
//
// BenchmarkEncodeSegment is the seal's inner loop alone — one segment's
// rows to one blob, no disk — at the two row sizes the end-to-end
// benchmark's tiered workloads store.

// BenchmarkSegmentQuery sweeps query shape (selective/absent/broad) ×
// data placement (hot/cold) × segment format (v1/v2, cold only) ×
// operation (count/select): `absent` is the zone-map prune-hit case
// (every segment skipped without touching a column), `selective` is the
// prune-miss + posting-intersection case — on this fixture a needle, a
// few dozen rows in 20k, so op=select isolates the block-skipping win —
// and `broad` is the worst case (not indexable, full window decode).
// BenchmarkColdSelect adds the tier-cache axis (cold+warm) and
// BenchmarkColdCount the metadata-only Count on the same axis.

// tierBenchFrames is a mid-sized episode: big enough to fill several
// segments, small enough that per-iteration store rebuilds stay honest.
var tierBenchFrames = sync.OnceValue(func() []traffic.Frame {
	frames := queryBenchFrames()
	if len(frames) > 20000 {
		frames = frames[:20000]
	}
	return frames
})

// coldBenchKey keys one fully sealed store per (segment size, cache
// budget) combination.
type coldBenchKey struct {
	segPackets int
	cacheBytes int64
}

// coldBenchStore builds (once) the fully sealed store for a key. The
// segment directory must outlive the benchmark that happens to build the
// store (the stores are shared), so it cannot come from b.TempDir().
var coldBenchStores sync.Map

func coldBenchStore(b *testing.B, key coldBenchKey) *Store {
	b.Helper()
	if st, ok := coldBenchStores.Load(key); ok {
		return st.(*Store)
	}
	dir, err := os.MkdirTemp("", "campuslab-tier-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	st := NewSharded(4)
	if err := st.EnableTiering(TierPolicy{
		Dir: dir, SegmentPackets: key.segPackets, MinSealPackets: 1,
		CacheBytes: key.cacheBytes,
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := st.AddBatch(tierBenchFrames(), 0); err != nil {
		b.Fatal(err)
	}
	if _, err := st.sealHot(0); err != nil {
		b.Fatal(err)
	}
	coldBenchStores.Store(key, st)
	return st
}

// BenchmarkSeal measures the spill path end to end: collect, column-encode,
// compress, fsync, manifest commit, hot trim.
func BenchmarkSeal(b *testing.B) {
	frames := tierBenchFrames()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewSharded(4)
		if err := st.EnableTiering(TierPolicy{Dir: b.TempDir(), SegmentPackets: 4096, MinSealPackets: 1}); err != nil {
			b.Fatal(err)
		}
		if _, err := st.AddBatch(frames, 0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := st.sealHot(0)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(frames) {
			b.Fatalf("sealed %d of %d", n, len(frames))
		}
	}
	b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkSealTrip times the batch that trips a policy seal when every
// segment it cuts was encoded ahead: the merge, two segment publishes, the
// manifest and the swap, which is what the acking batch still pays. A
// one-frame batch trips it, so it completes no new run and the timed
// region starts no encoder.
func BenchmarkSealTrip(b *testing.B) {
	frames := tierBenchFrames()
	const seg, hot = 2048, 8192
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewSharded(4)
		if err := st.EnableTiering(TierPolicy{Dir: b.TempDir(), HotPackets: hot, SegmentPackets: seg, MinSealPackets: 1}); err != nil {
			b.Fatal(err)
		}
		if _, err := st.AddBatch(frames[:hot], 0); err != nil {
			b.Fatal(err)
		}
		waitEncoder(b, st)
		used := obsTierPreUsed.Value()
		b.StartTimer()
		if _, err := st.AddBatch(frames[hot:hot+1], 1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if ts := st.TierStats(); ts.Seals != 1 || ts.SealedPackets != hot/2 || obsTierPreUsed.Value()-used != hot/2/seg {
			b.Fatalf("trip sealed %+v with %d blobs encoded ahead", ts, obsTierPreUsed.Value()-used)
		}
	}
}

// BenchmarkEncodeSegment encodes one 8192-row segment (collect_tiered's
// size) of bytes-dominated rows (~1.4 KB: campus mix under DNS
// amplification) and of packet-count-dominated rows (~170 B: SYN flood
// and port scan). MB/s is raw packet bytes in; B/pkt is the blob.
func BenchmarkEncodeSegment(b *testing.B) {
	small := sync.OnceValue(func() []traffic.Frame {
		plan := traffic.DefaultPlan(40)
		gens := []traffic.Generator{traffic.NewCampus(traffic.Profile{
			Plan: plan, FlowsPerSecond: 35, Duration: 2 * time.Second, Seed: 9311,
		})}
		for i, a := range []struct {
			kind traffic.Label
			rate float64
		}{{traffic.LabelSYNFlood, 20000}, {traffic.LabelPortScan, 5000}} {
			gens = append(gens, traffic.NewAttack(traffic.AttackConfig{
				Kind: a.kind, Plan: plan, Victim: plan.Host(3 + i),
				Start: 100 * time.Millisecond, Duration: 1900 * time.Millisecond, Rate: a.rate, Seed: 9312 + int64(i),
			}))
		}
		return traffic.Collect(traffic.NewMerge(gens...), 0)
	})
	for _, c := range []struct {
		name   string
		frames func() []traffic.Frame
	}{{"rows=1.4KB", queryBenchFrames}, {"rows=170B", small}} {
		b.Run(c.name, func(b *testing.B) {
			st := NewSharded(1)
			if _, err := st.AddBatch(c.frames(), 0); err != nil {
				b.Fatal(err)
			}
			rows := st.packetsBetween(0, -1)
			if len(rows) < 8192 {
				b.Fatalf("episode holds %d rows, need 8192", len(rows))
			}
			rows = rows[len(rows)-8192:]
			raw := 0
			for i := range rows {
				raw += len(rows[i].Data)
			}
			b.SetBytes(int64(raw))
			b.ReportAllocs()
			b.ResetTimer()
			var blob []byte
			for i := 0; i < b.N; i++ {
				var err error
				if blob, _, err = encodeSegment(rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(raw)/float64(len(rows)), "rawB/pkt")
			b.ReportMetric(float64(len(blob))/float64(len(rows)), "B/pkt")
		})
	}
}

// BenchmarkSegmentInflate is the cold read path's block decode alone: one
// op inflates one block of a sealed segment of the equivalence corpus
// (equivFrames, 32-row blocks) into a fresh exact-size buffer, as a block
// cache miss does, cycling through the segment's blocks. B/op and
// allocs/op are per block; the buffer the cache keeps is one allocation.
func BenchmarkSegmentInflate(b *testing.B) {
	st := NewSharded(1)
	if _, err := st.AddBatch(equivFrames(b), 0); err != nil {
		b.Fatal(err)
	}
	rows := st.packetsBetween(0, -1)
	blob, _, err := encodeSegment(rows[:min(len(rows), segBlockRows*256)])
	if err != nil {
		b.Fatal(err)
	}
	sb, err := parseSegment(blob)
	if err != nil {
		b.Fatal(err)
	}
	d, err := sb.parseData()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.inflateBlock(d.streams, i%d.nblocks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.rowOff[d.count])/float64(d.nblocks), "rawB/block")
}

// benchStoreOp runs one (store, filter, op) cell.
func benchStoreOp(b *testing.B, st *Store, f *Filter, op string, cold bool) {
	st.SetQueryWorkers(1)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if op == "select" {
			n = len(st.Select(f, 0))
		} else {
			n = st.Count(f)
		}
	}
	b.ReportMetric(float64(n), "hits")
	if cold {
		if ts := st.TierStats(); ts.Err != nil {
			b.Fatal(ts.Err)
		}
	}
}

// BenchmarkSegmentQuery: the cold rows live in compressed columns; the
// sweep shows what each query shape pays for them relative to hot RAM.
// (The v1 single-stream leg went with the v1 format; its last measured
// selective-Select ratio, 6.0x in v2's favour, is in EXPERIMENTS.md.)
func BenchmarkSegmentQuery(b *testing.B) {
	cases := []struct{ name, expr string }{
		{"selective", "proto == udp && dst.port == 53"}, // prune-miss needle: zones admit, index narrows to ~40 rows
		{"absent", "dst.port == 59999"},                 // prune-hit: zones refute every segment
		{"broad", "len > 100"},                          // not indexable: full window decode
	}
	for _, c := range cases {
		f := MustFilter(c.expr)
		for _, op := range []string{"count", "select"} {
			op := op
			b.Run(fmt.Sprintf("expr=%s/tier=hot/op=%s", c.name, op), func(b *testing.B) {
				benchStoreOp(b, queryBenchStore(b, 4), f, op, false)
			})
			st := coldBenchStore(b, coldBenchKey{segPackets: 4096})
			b.Run(fmt.Sprintf("expr=%s/tier=cold/fmt=v%d/op=%s", c.name, segVersion, op), func(b *testing.B) {
				benchStoreOp(b, st, f, op, true)
			})
		}
	}
	// Prune accounting sanity: the absent query must have skipped every
	// segment via zone maps.
	st := coldBenchStore(b, coldBenchKey{segPackets: 4096})
	pre := st.TierStats()
	st.Count(MustFilter("dst.port == 59999"))
	post := st.TierStats()
	if scanned := post.SegmentsScanned - pre.SegmentsScanned; scanned != 0 {
		b.Fatalf("absent-value query decoded %d segments; zone maps should prune all", scanned)
	}
}

// BenchmarkColdSelect is the cache axis: the selective materializing
// query against hot RAM, the cold tier decoding every time, and the cold
// tier with a warm decoded-block cache. The cache=on/scan leg isolates
// the cache policy: each op is the warm selective query followed by a
// one-pass Select over a window whose decoded rows outgrow the budget, so
// nothing the scan reads is cached when it next comes round. A plain LRU
// let every scan flush the selective query's blocks and directories; the
// segmented LRU keeps them, and only the scan's own blocks inflate.
func BenchmarkColdSelect(b *testing.B) {
	b.Run("tier=cold/cache=on/scan", benchColdSelectScan)
	f := MustFilter("proto == udp && dst.port == 53")
	cases := []struct {
		name string
		key  coldBenchKey
		hot  bool
	}{
		{name: "tier=hot", hot: true},
		{name: "tier=cold/cache=off", key: coldBenchKey{segPackets: 4096}},
		{name: "tier=cold/cache=on", key: coldBenchKey{segPackets: 4096, cacheBytes: 64 << 20}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var st *Store
			if c.hot {
				st = queryBenchStore(b, 4)
			} else {
				st = coldBenchStore(b, c.key)
				if c.key.cacheBytes > 0 {
					st.Select(f, 0) // warm the cache outside the timer
				}
			}
			st.SetQueryWorkers(1)
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n = len(st.Select(f, 0))
			}
			if n == 0 {
				b.Fatal("selective Select matched nothing; segment reads are failing")
			}
			b.ReportMetric(float64(n), "hits")
			if !c.hot {
				ts := st.TierStats()
				if ts.Err != nil {
					b.Fatal(ts.Err)
				}
				if c.key.cacheBytes > 0 && ts.CacheHits == 0 {
					b.Fatal("warm-cache benchmark never hit the cache")
				}
			}
		})
	}
}

func benchColdSelectScan(b *testing.B) {
	const windows = 6
	f := MustFilter("proto == udp && dst.port == 53")
	st := coldBenchStore(b, coldBenchKey{segPackets: 4096, cacheBytes: 4 << 20})
	st.SetQueryWorkers(1)
	span := time.Duration(st.lastTS.Load())
	scans := make([]*Filter, windows)
	for i := range scans {
		scans[i] = MustFilter(fmt.Sprintf("ts >= %dns && ts < %dns && len > 0", span*time.Duration(i)/windows, span*time.Duration(i+1)/windows+1))
	}
	st.Select(f, 0) // warm the cache outside the timer
	inflated := obsQueryBytesInflated.Value()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n = len(st.Select(f, 0))
		st.Select(scans[i%windows], 0)
	}
	b.StopTimer()
	if n == 0 {
		b.Fatal("selective Select matched nothing; segment reads are failing")
	}
	if ts := st.TierStats(); ts.Err != nil {
		b.Fatal(ts.Err)
	}
	b.ReportMetric(float64(n), "hits")
	b.ReportMetric(float64(obsQueryBytesInflated.Value()-inflated)/float64(b.N), "inflatedB/op")
}

// BenchmarkColdCount is the metadata-only query: an indexable Count over a
// time window, cold, with the tier cache off (every query rebuilds each
// segment's directory) and on (directories resident). Either way the count
// is a clipped posting-list intersection, so inflatedB/op must be 0.
func BenchmarkColdCount(b *testing.B) {
	for _, c := range []struct {
		name string
		key  coldBenchKey
	}{
		{"cache=off", coldBenchKey{segPackets: 4096}},
		{"cache=on", coldBenchKey{segPackets: 4096, cacheBytes: 64 << 20}},
	} {
		b.Run(c.name, func(b *testing.B) {
			st := coldBenchStore(b, c.key)
			st.SetQueryWorkers(1)
			span := time.Duration(st.lastTS.Load())
			f := MustFilter(fmt.Sprintf("ts >= %dns && ts < %dns && proto == udp && dst.port == 53", int64(span/4), int64(3*span/4)))
			want := st.Count(f) // also the first-touch directory builds
			if want == 0 {
				b.Fatal("windowed Count matched nothing; segment reads are failing")
			}
			inflated := obsQueryBytesInflated.Value()
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n = st.Count(f)
			}
			b.StopTimer()
			if n != want {
				b.Fatalf("Count drifted: %d -> %d", want, n)
			}
			if ts := st.TierStats(); ts.Err != nil {
				b.Fatal(ts.Err)
			} else if c.key.cacheBytes > 0 && ts.DirHits == 0 {
				b.Fatal("warm-cache benchmark never reused a directory")
			}
			got := float64(obsQueryBytesInflated.Value()-inflated) / float64(b.N)
			if got != 0 {
				b.Fatalf("a windowed indexable Count inflated %.0f bytes per query", got)
			}
			b.ReportMetric(float64(n), "hits")
			b.ReportMetric(got, "inflatedB/op")
		})
	}
}

// BenchmarkEvictBefore pins the untiered eviction path (per-shard slab cut
// + full posting trim): the tiered EvictBefore routes to sealBefore, so
// this guards the legacy drop path against regressions.
func BenchmarkEvictBefore(b *testing.B) {
	frames := tierBenchFrames()
	var cut time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewSharded(4)
		if _, err := st.AddBatch(frames, 0); err != nil {
			b.Fatal(err)
		}
		if cut == 0 {
			cut = time.Duration(st.lastTS.Load()) / 2
		}
		b.StartTimer()
		if n := st.EvictBefore(cut); n == 0 {
			b.Fatal("evicted nothing")
		}
	}
}
