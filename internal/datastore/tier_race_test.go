package datastore

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTierIngestSealQueryRace drives concurrent ingest, automatic and
// manual sealing, compaction, retention and the full query surface against
// one tiered store. It asserts no torn reads (counts never regress, scan
// stays (TS, ID)-sorted with unique IDs) and is primarily a -race gate
// for the tier.mu/shard-lock/sealMu ordering.
func TestTierIngestSealQueryRace(t *testing.T) {
	frames := tierFrames(t)
	if len(frames) > 3000 {
		frames = frames[:3000]
	}
	s := NewSharded(4)
	if err := s.EnableTiering(TierPolicy{
		Dir: t.TempDir(), HotPackets: 1024,
		MinSealPackets: 32, SegmentPackets: 128,
	}); err != nil {
		t.Fatal(err)
	}
	stopCompact := s.StartTierCompactor(2 * time.Millisecond)
	defer stopCompact()

	f, err := ParseFilter("proto == udp && dst.port == 53")
	if err != nil {
		t.Fatal(err)
	}
	var ingested atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // ingester
		defer wg.Done()
		defer close(done)
		for lo := 0; lo < len(frames); {
			hi := lo + 100
			if hi > len(frames) {
				hi = len(frames)
			}
			if _, err := s.AddBatch(frames[lo:hi], 2); err != nil {
				t.Errorf("AddBatch: %v", err)
				return
			}
			ingested.Add(uint64(hi - lo))
			lo = hi
		}
	}()

	wg.Add(1)
	go func() { // manual tier churn racing the automatic trigger
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			s.sealHot(256)
			s.CompactTier()
		}
	}()

	wg.Add(1)
	go func() { // queries
		defer wg.Done()
		var lastTotal uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			// Ingested count is a floor for what queries must see: a batch
			// is counted only after AddBatch returned.
			floor := ingested.Load()
			var n uint64
			var lastID PacketID
			var lastTS time.Duration
			first := true
			s.Scan(func(sp *StoredPacket) bool {
				if !first && (sp.TS < lastTS || (sp.TS == lastTS && sp.ID <= lastID)) {
					t.Errorf("scan order violated: (%v,%d) after (%v,%d)", sp.TS, sp.ID, lastTS, lastID)
					return false
				}
				first = false
				lastTS, lastID = sp.TS, sp.ID
				n++
				return true
			})
			if n < floor {
				t.Errorf("scan saw %d packets, %d were already acked", n, floor)
				return
			}
			if n < lastTotal {
				t.Errorf("total packets regressed: %d -> %d", lastTotal, n)
				return
			}
			lastTotal = n
			s.Select(f, 50)
			s.Count(f)
			s.Flows()
			s.TierStats()
			s.Stats()
		}
	}()

	wg.Wait()
	stopCompact()

	// Converged store must equal the untiered reference exactly.
	ref := NewSharded(4)
	for lo := 0; lo < len(frames); {
		hi := lo + 100
		if hi > len(frames) {
			hi = len(frames)
		}
		if _, err := ref.AddBatch(frames[lo:hi], 2); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	compareTierPrints(t, "post-race", tierFingerprint(t, ref), tierFingerprint(t, s))
	if ts := s.TierStats(); ts.Seals == 0 || ts.ColdPackets == 0 {
		t.Fatalf("race test never sealed: %+v", ts)
	}
}

// TestTierCacheQueryCompactRace races cold queries against seal/compact
// churn with the tier cache enabled: concurrent block fills and
// first-touch directory builds of the same new segment, LRU evictions of
// both kinds and compaction invalidations must never tear a result. The
// small budget forces constant eviction; the converged store must still
// equal the untiered reference exactly.
func TestTierCacheQueryCompactRace(t *testing.T) {
	frames := tierFrames(t)
	if len(frames) > 3000 {
		frames = frames[:3000]
	}
	s := NewSharded(4)
	if err := s.EnableTiering(TierPolicy{
		Dir: t.TempDir(), HotPackets: 1024,
		MinSealPackets: 32, SegmentPackets: 128,
		CacheBytes: 64 << 10,
	}); err != nil {
		t.Fatal(err)
	}
	stopCompact := s.StartTierCompactor(2 * time.Millisecond)
	defer stopCompact()

	sel, err := ParseFilter("proto == udp && dst.port == 53")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := ParseFilter("len > 0 && ts >= 0")
	if err != nil {
		t.Fatal(err)
	}
	// Window plus index keys only: answered from the directories alone, so
	// every freshly sealed or compacted segment gets its first-touch build
	// from whichever query goroutine arrives first — or from several at once.
	meta, err := ParseFilter("ts >= 0 && ts < 1h && ip")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	// rounds[g] counts query goroutine g's completed rounds. The ingester
	// lands its next batch only once every goroutine has completed a round
	// since the previous one, so queries and seals interleave by
	// construction: an ingester that ran ahead would leave no directory to
	// reuse. A goroutine that stops parks its count at MaxInt64, which the
	// ingester no longer waits on.
	var rounds [3]atomic.Int64

	wg.Add(1)
	go func() { // ingester
		defer wg.Done()
		defer close(done)
		for lo := 0; lo < len(frames); {
			hi := lo + 100
			if hi > len(frames) {
				hi = len(frames)
			}
			var seen [len(rounds)]int64
			for g := range rounds {
				seen[g] = rounds[g].Load()
			}
			if _, err := s.AddBatch(frames[lo:hi], 2); err != nil {
				t.Errorf("AddBatch: %v", err)
				return
			}
			lo = hi
			for g := range rounds {
				for seen[g] != math.MaxInt64 && rounds[g].Load() == seen[g] {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}()

	wg.Add(1)
	go func() { // seal/compact churn invalidating cached blocks
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			s.sealHot(256)
			s.CompactTier()
		}
	}()

	for g := range rounds { // cache-hitting query load
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rounds[g].Store(math.MaxInt64)
			var lastN, lastMeta int
			for {
				select {
				case <-done:
					return
				default:
				}
				// The indexable filter exercises selective block decode, the
				// non-indexable one full decode — both through the cache.
				s.Select(sel, 50)
				n := s.Count(scan)
				if n < lastN {
					t.Errorf("count regressed under churn: %d -> %d", lastN, n)
					return
				}
				lastN = n
				m := s.Count(meta)
				if m < lastMeta {
					t.Errorf("metadata-only count regressed under churn: %d -> %d", lastMeta, m)
					return
				}
				lastMeta = m
				s.packetsBetween(0, -1)
				rounds[g].Add(1)
			}
		}()
	}

	wg.Wait()
	stopCompact()

	ref := NewSharded(4)
	for lo := 0; lo < len(frames); {
		hi := lo + 100
		if hi > len(frames) {
			hi = len(frames)
		}
		if _, err := ref.AddBatch(frames[lo:hi], 2); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	compareTierPrints(t, "post-cache-race", tierFingerprint(t, ref), tierFingerprint(t, s))
	ts := s.TierStats()
	if ts.Seals == 0 || ts.ColdPackets == 0 {
		t.Fatalf("cache race test never sealed: %+v", ts)
	}
	if ts.CacheHits+ts.CacheMisses == 0 {
		t.Fatal("cache race test never touched the cache")
	}
	if ts.DirHits == 0 || ts.DirMisses == 0 {
		t.Fatalf("cache race test never built or reused a directory: %+v", ts)
	}
	if ts.Err != nil {
		t.Fatal(ts.Err)
	}
	checkCacheAccounting(t, s.tier.Load().cache)
	if got, want := s.Count(meta), ref.Count(meta); got != want {
		t.Fatalf("converged metadata-only count %d, reference %d", got, want)
	}
}
