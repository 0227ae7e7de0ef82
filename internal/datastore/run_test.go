package datastore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// atCounter wraps a run and counts what each asks it to materialise.
type atCounter struct {
	run
	ats int
}

func (c *atCounter) at(pos int) (*StoredPacket, error) {
	c.ats++
	return c.run.at(pos)
}

// contractRun is one run and the rows it serves, in position order.
type contractRun struct {
	rows []StoredPacket
	run
}

// contractRuns returns every kind of run over one store's rows: a hot
// shard, and cursors over a segment encoded from the store's whole dense
// ID run, with the block cache on and off. The shard is one of two, so its
// IDs have gaps, and the frames arrive on three links.
func contractRuns(t *testing.T) map[string]contractRun {
	t.Helper()
	frames := tierFrames(t)
	links := make([]uint16, len(frames))
	for i := range links {
		links[i] = uint16(i % 3)
	}
	s := NewSharded(2)
	if _, err := s.AddBatchLinks(frames, links, 1); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	if len(sh.packets) < 1000 || len(sh.packets) == len(frames) {
		t.Fatalf("shard 0 holds %d of %d rows", len(sh.packets), len(frames))
	}
	rows := s.hotRun(0, PacketID(len(frames)))
	blob, _, err := encodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	cursor := func(cache *tierCache) *segCursor {
		sb, err := parseSegment(blob)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := buildSegDir(sb)
		if err != nil {
			t.Fatal(err)
		}
		cur := &segCursor{dir: dir, sb: sb, block: -1, cache: cache, seq: 1}
		t.Cleanup(cur.close)
		return cur
	}
	return map[string]contractRun{
		"hot":            {sh.packets, sh},
		"cold/cache=on":  {rows, cursor(newTierCache(64 << 20))},
		"cold/cache=off": {rows, cursor(nil)},
	}
}

// TestRunContract holds both implementations of run to the one contract,
// against brute force over the rows they serve.
func TestRunContract(t *testing.T) {
	inWin := func(w tsWin, ts time.Duration) bool {
		return (!w.hasFrom || ts >= w.from) && (!w.hasTo || ts < w.to)
	}
	// Index-only conjunctions: with no residual and no ts, Match is exactly
	// "every key holds", so it is the brute-force candidate test.
	keySets := [][]string{
		{"proto == udp"}, {"proto == tcp"}, {"proto == 0"}, {"proto == 250"},
		{"src.port == 53"}, {"dst.port == 53"}, {"dst.port == 443"}, {"dst.port == 4"},
		{"link == 0"}, {"link == 2"}, {"link == 3"}, {"link == 70000"},
		{"label == dns-amp"}, {"label == 0"},
		{"ip"}, {"tcp"}, {"udp"}, {"icmp"}, {"dns"}, {"dns.resp"},
		{"proto == udp", "dst.port == 53"}, {"dns", "link == 1", "label == dns-amp"},
		{"tcp", "udp"}, {"proto == tcp", "dst.port == 443", "link == 2"},
		{"len > 5"}, // not indexable
	}

	for name, cr := range contractRuns(t) {
		t.Run(name, func(t *testing.T) {
			rows, r := cr.rows, cr.run
			_, hot := r.(*shard)
			n := len(rows)
			wins := []tsWin{
				{}, // everything
				{from: rows[n/3].TS, to: rows[2*n/3].TS, hasFrom: true, hasTo: true},
				{from: rows[n/2].TS, to: rows[n/2+20].TS + 1, hasFrom: true, hasTo: true}, // under indexMinWindow or near it
				{from: rows[n/2].TS, to: rows[n/2+200].TS, hasFrom: true, hasTo: true},
			}
			for _, c := range planWindowCases {
				wins = append(wins, c.win)
			}
			taken, declined := 0, 0 // indexable plans only
			for _, w := range wins {
				lo, hi := r.span(w)
				first, count := -1, 0
				for i := range rows {
					if inWin(w, rows[i].TS) {
						if first < 0 {
							first = i
						}
						count++
					}
				}
				if max(hi-lo, 0) != count || (count > 0 && lo != first) {
					t.Fatalf("span(%+v) = [%d, %d), want %d rows from %d", w, lo, hi, count, first)
				}
				if lo >= hi {
					continue
				}
				for _, keys := range keySets {
					f := MustFilter(strings.Join(keys, " && "))
					var want []uint32
					for i := lo; i < hi; i++ {
						if f.match(&rows[i]) {
							want = append(want, uint32(i))
						}
					}
					shortest := hi - lo
					for _, k := range keys {
						kf, m := MustFilter(k), 0
						for i := lo; i < hi; i++ {
							if kf.match(&rows[i]) {
								m++
							}
						}
						shortest = min(shortest, m)
					}
					wantOK := f.plan.indexable
					if hot {
						wantOK = wantOK && hi-lo >= indexMinWindow &&
							(shortest == 0 || shortest*selectivityFactor <= hi-lo)
					}
					got, ok := r.candidates(&f.plan, lo, hi)
					if ok != wantOK {
						t.Fatalf("%q over [%d, %d): ok = %v, want %v (shortest list %d)", f.source(), lo, hi, ok, wantOK, shortest)
					}
					if ok && !slices.Equal(got, want) {
						t.Fatalf("%q over [%d, %d): %d candidates, brute force finds %d", f.source(), lo, hi, len(got), len(want))
					}
					if ok {
						taken++
					} else if f.plan.indexable {
						declined++
					}
				}
			}
			if taken == 0 || (declined > 0) != hot {
				t.Fatalf("index path taken %d times and declined %d: a shard must do both, a segment never declines", taken, declined)
			}

			for i := range rows {
				pos, ok := r.find(rows[i].ID)
				if !ok || pos != i {
					t.Fatalf("find(%d) = %d, %v; want row %d", rows[i].ID, pos, ok, i)
				}
				sp, err := r.at(pos)
				head := rows[i]
				if !hot {
					head.Data = nil // a cold row's frame waits for frame
				}
				if err != nil || !reflect.DeepEqual(*sp, head) {
					t.Fatalf("at(%d) = %+v, %v; want %+v", pos, sp, err, head)
				}
				if err := r.frame(pos, sp); err != nil || !reflect.DeepEqual(*sp, rows[i]) {
					t.Fatalf("frame(%d) = %+v, %v; want %+v", pos, sp, err, rows[i])
				}
			}
			stored := map[PacketID]bool{}
			for i := range rows {
				stored[rows[i].ID] = true
			}
			misses := 0
			for id := range stored {
				for _, nb := range []PacketID{id - 1, id + 1} {
					if !stored[nb] {
						misses++
						if pos, ok := r.find(nb); ok {
							t.Fatalf("find(%d) hit row %d; no such row", nb, pos)
						}
					}
				}
			}
			// The hot shard's IDs have gaps; a segment is one dense run, so
			// its only absent neighbours are minID-1 and maxID+1.
			if (hot && misses < 100) || (!hot && misses != 2) {
				t.Fatalf("%d absent neighbours probed (hot %v)", misses, hot)
			}
		})
	}
}

// TestEachMaterialisesOnlyWhatItMust: a count with nothing to re-check
// never asks the run for a row, and a limit stops the asking with it.
func TestEachMaterialisesOnlyWhatItMust(t *testing.T) {
	const k = 5
	for name, cr := range contractRuns(t) {
		t.Run(name, func(t *testing.T) {
			rows, r := cr.rows, cr.run
			matches := func(f *Filter) (n, kth int) { // total, and candidates walked to reach the k-th
				keys := MustFilter("udp")
				walked := 0
				for i := range rows {
					if !keys.match(&rows[i]) {
						continue
					}
					walked++
					if f.match(&rows[i]) {
						if n++; n == k {
							kth = walked
						}
					}
				}
				return n, kth
			}
			// "udp" is selective enough over the whole slab that the shard takes
			// the index path too (asserted below): every run walks candidates.
			for _, expr := range []string{"udp", "udp && len > 90"} {
				f := MustFilter(expr)
				total, kth := matches(f)
				if total < 4*k {
					t.Fatalf("%q: only %d matches", expr, total)
				}
				var qs queryStats
				c := &atCounter{run: r}
				n, err := each(c, f, &qs, nil, 0)
				if err != nil || n != total {
					t.Fatalf("%q: counted %d, %v; want %d", expr, n, err, total)
				}
				if qs.indexRuns.Load() != 1 {
					t.Fatalf("%q: the index path was not taken", expr)
				}
				if f.plan.residual == nil && c.ats != 0 {
					t.Fatalf("%q: a count with no residual materialised %d rows", expr, c.ats)
				}
				if f.plan.residual != nil && c.ats != int(qs.rowsScanned.Load()) {
					t.Fatalf("%q: %d rows materialised for %d candidates", expr, c.ats, qs.rowsScanned.Load())
				}
				c.ats = 0
				var out []StoredPacket
				n, err = each(c, f, &qs, &out, k)
				if err != nil || n != k || len(out) != k || c.ats != kth {
					t.Fatalf("%q limit %d: %d matches, %d rows out, %d materialised (%v); want %d materialised",
						expr, k, n, len(out), c.ats, err, kth)
				}
			}
			if cur, ok := r.(*segCursor); ok && cur.rowsDecoded == 0 {
				t.Fatal("the cursor's row counter is not wired")
			}
		})
	}
}

// TestClipIntersectGeneric checks the one clip and the one intersect at
// both element types against a set model.
func TestClipIntersectGeneric(t *testing.T) {
	t.Run("uint32", func(t *testing.T) { checkClipIntersect[uint32](t) })
	t.Run("PacketID", func(t *testing.T) { checkClipIntersect[PacketID](t) })
}

func checkClipIntersect[T ~uint32 | ~uint64](t *testing.T) {
	r := rand.New(rand.NewSource(20))
	sorted := func(n, domain int) []T {
		set := map[T]bool{}
		for len(set) < n {
			set[T(r.Intn(domain))] = true
		}
		out := make([]T, 0, n)
		for v := range set {
			out = append(out, v)
		}
		slices.Sort(out)
		return out
	}
	model := func(lists [][]T) []T {
		var out []T
		for _, v := range lists[0] {
			all := true
			for _, l := range lists[1:] {
				_, found := slices.BinarySearch(l, v)
				all = all && found
			}
			if all {
				out = append(out, v)
			}
		}
		return out
	}
	check := func(name string, lists [][]T) {
		t.Helper()
		want := model(lists)
		copies := make([][]T, len(lists))
		for i := range lists {
			copies[i] = slices.Clone(lists[i])
		}
		got := intersect(lists)
		if len(got) != len(want) || (len(want) > 0 && !slices.Equal(got, want)) {
			t.Fatalf("%s: intersect = %v, want %v", name, got, want)
		}
		for i := 1; i < len(lists); i++ {
			if !slices.Equal(lists[i], copies[i]) {
				t.Fatalf("%s: intersect wrote list %d", name, i)
			}
		}
	}

	a := sorted(40, 100)
	if got := intersect([][]T{a}); len(got) != len(a) || &got[0] != &a[0] {
		t.Fatal("a single list is not returned as a view")
	}
	check("empty first", [][]T{{}, a})
	check("empty second", [][]T{a, {}})
	check("identical", [][]T{a, slices.Clone(a), slices.Clone(a)})
	check("one element hit", [][]T{{a[7]}, a})
	check("one element miss", [][]T{{101}, a})
	check("disjoint", [][]T{{1, 3, 5}, {0, 2, 4, 6}})
	for i := 0; i < 200; i++ {
		lists := make([][]T, 2+r.Intn(3))
		for j := range lists {
			lists[j] = sorted(r.Intn(60), 80)
		}
		slices.SortFunc(lists, func(x, y []T) int { return len(x) - len(y) }) // shortest first, as the caller passes them
		check(fmt.Sprintf("random %d", i), lists)

		l := sorted(r.Intn(60), 80)
		lo, hi := T(r.Intn(90)), T(r.Intn(90))
		var want []T
		for _, v := range l {
			if v >= lo && v < hi {
				want = append(want, v)
			}
		}
		if got := clip(l, lo, hi); len(got) != len(want) || (len(want) > 0 && (!slices.Equal(got, want) || &got[0] != &l[slices.Index(l, want[0])])) {
			t.Fatalf("clip(%v, %d, %d) = %v, want a view of %v", l, lo, hi, got, want)
		}
	}
}

// TestColdRunFailureDegradesAlike: a segment whose directory and first
// summary stripe are resident but whose file has rotted fails mid-walk —
// at the first stripe the cache cannot serve, after rows of the cached one
// were already materialised. Select and Count drop the same thing, the
// whole run, and each notes the failure once.
func TestColdRunFailureDegradesAlike(t *testing.T) {
	dir := t.TempDir()
	s := ingestTiered(t, 4, 1, TierPolicy{})
	if err := s.EnableTiering(TierPolicy{Dir: dir, SegmentPackets: 2048, CacheBytes: 64 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.sealHot(0); err != nil {
		t.Fatal(err)
	}
	s.SetQueryWorkers(1)
	tr := s.tier.Load()
	if len(tr.segs) < 2 {
		t.Fatalf("fixture sealed %d segments, need several", len(tr.segs))
	}
	f := MustFilter("proto == udp && len > 90") // the residual makes Count walk the summaries too
	all := MustFilter("len > 0")
	twin := ingestTiered(t, 4, 1, TierPolicy{}) // untiered: the expected answers, without warming s's cache
	healthy := twin.Select(f, 0)

	// Make the directory of a segment inside the attack (its last stripe
	// holds matches) and its first stripe resident, then flip a byte of
	// its last stripe's stream on disk.
	bad := tr.segs[1]
	cur, err := tr.openSeg(bad, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := cur.dir
	cur.close()
	last := len(d.sums.rawLen) - 1
	if last < 1 {
		t.Fatalf("segment spans %d stripes, need >= 2", last+1)
	}
	lastStripeTS := d.tss[last*d.sums.stripeRows]
	s.Select(MustFilter(fmt.Sprintf("ts < %dns", lastStripeTS)), 0)
	if !cacheHas(tr.cache, stripeKey(bad.seq, 0)) || cacheHas(tr.cache, stripeKey(bad.seq, last)) {
		t.Fatal("want the first stripe resident and the last not")
	}
	path := filepath.Join(dir, bad.name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The summary column is the file's last: its payload ends the file.
	b[len(b)-d.sumCol.n+d.sums.streamsOff+d.sums.compOff[last]+d.sums.compLen[last]/2] ^= 0x55
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var want []StoredPacket
	for _, sp := range healthy {
		if sp.ID < bad.meta.minID || sp.ID > bad.meta.maxID {
			want = append(want, sp)
		}
	}
	if len(want) == 0 || len(want) == len(healthy) {
		t.Fatalf("fixture: %d of %d matches survive", len(want), len(healthy))
	}

	before := s.TierStats()
	got := s.Select(f, 0)
	ts := s.TierStats()
	if ts.CorruptSegments != before.CorruptSegments+1 || !errors.Is(ts.Err, errSegmentCorrupt) {
		t.Fatalf("Select noted the failing run %d times (err %v), want once", ts.CorruptSegments-before.CorruptSegments, ts.Err)
	}
	if ts.CacheHits == before.CacheHits {
		t.Fatal("the failing run materialised nothing before it failed; the failure was not mid-walk")
	}
	n := s.Count(f)
	if ts := s.TierStats(); ts.CorruptSegments != before.CorruptSegments+2 {
		t.Fatalf("Count noted the failing run %d times, want once", ts.CorruptSegments-before.CorruptSegments-1)
	}
	if !reflect.DeepEqual(got, want) || n != len(want) {
		t.Fatalf("Select returned %d rows and Count %d; the surviving segments hold %d", len(got), n, len(want))
	}
	// A limit met inside the resident stripe and blocks never reaches the
	// file: every run stops at its first row.
	if first := s.Select(all, 1); !reflect.DeepEqual(first, twin.Select(all, 1)) || s.TierStats().CorruptSegments != before.CorruptSegments+2 {
		t.Fatal("a limited Select that stops before the bad block was degraded")
	}
}

// TestQueryCountersPinned: the executor reports what the per-tier walks
// reported. The first four deltas were recorded from the parent commit
// (PR 19, 7510c34) running this query list over this store: planner
// index/scan 11/3, rows scanned 18500, rows matched 12062. The fifth,
// index-path runs, was 7 there — hot shards only — and is 69 now that a
// segment answering from its posting lists counts as well.
func TestQueryCountersPinned(t *testing.T) {
	s := ingestTiered(t, 4, 1, aggressiveTier(t.TempDir()))
	s.SetQueryWorkers(1)
	read := func() [5]uint64 {
		return [5]uint64{
			obsQueryPlannerIndex.Value(), obsQueryPlannerScan.Value(),
			obsQueryRowsScanned.Value(), obsQueryRowsMatched.Value(), obsQueryIndexRuns.Value(),
		}
	}
	before := read()
	for _, q := range []struct {
		expr  string
		limit int
		count bool
	}{
		{"proto == udp", 0, false},
		{"proto == udp", 7, false},
		{"proto == udp && dst.port == 53", 0, true},
		{"dns && len > 90", 0, false},
		{"dns && len > 90", 0, true},
		{"ts >= 1s && ts < 3s && proto == tcp", 0, true},
		{"ts >= 1s && ts < 3s && proto == tcp && len > 60", 25, false},
		{"dst.port == 4", 0, false},
		{"link == 70000", 0, true},
		{"len > 1200", 0, false},
		{"len > 1200 || dns", 10, false},
		{"ts < 2s", 0, true},
		{"label == 0 && ts >= 2s", 0, true},
		{"tcp && src.port == 443 && ts > 500ms", 0, false},
	} {
		f := MustFilter(q.expr)
		if q.count {
			s.Count(f)
		} else {
			s.Select(f, q.limit)
		}
	}
	after := read()
	var got [5]uint64
	for i := range got {
		got[i] = after[i] - before[i]
	}
	if want := [5]uint64{11, 3, 18500, 12062, 69}; got != want {
		t.Fatalf("planner index/scan, rows scanned/matched, index runs = %v, want %v", got, want)
	}
}
