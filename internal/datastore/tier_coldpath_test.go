package datastore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"campuslab/internal/frame"
)

// Tests for the cold-tier query fast path: read-path equivalence, the
// decoded-block cache, binary-search window pruning and block-isolated
// partial decode.

// tierFmtPolicy is aggressiveTier with a cache budget.
func tierFmtPolicy(dir string, cacheBytes int64) TierPolicy {
	pol := aggressiveTier(dir)
	pol.CacheBytes = cacheBytes
	return pol
}

// diskSegVersions reads the version field of every segment file in dir.
func diskSegVersions(t *testing.T, dir string) map[uint16]int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	vers := map[uint16]int{}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".clsg" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		vers[binary.LittleEndian.Uint16(b[4:6])]++
	}
	return vers
}

// TestTierFormatEquivalence is the read-path property: the segment
// format, with and without the decoded-block cache and the mmap read
// path, must answer every query byte-identically to an untiered store
// across shard and worker counts — through the planner, the scan
// reference, time windows, and compaction.
func TestTierFormatEquivalence(t *testing.T) {
	ref := ingestTiered(t, 4, 4, TierPolicy{})
	want := tierFingerprint(t, ref)
	if want.total == 0 {
		t.Fatal("reference store is empty")
	}
	span := want.scan[len(want.scan)-1].TS

	cases := []struct {
		name   string
		format int
		cache  int64
		noMmap bool
		// full=false runs one matrix cell only: the case is a read-path
		// toggle, not a format, so one cell buys the coverage.
		full bool
	}{
		{name: "v2", format: segVersion2, full: true},
		// The cache budget must hold the decoded working set: a strict
		// scan cycle one block over budget evicts every block before its
		// reuse (0 hits), which the hit assertion below would misread.
		{name: "v2-cache", format: segVersion2, cache: 64 << 20},
		{name: "v2-nommap", format: segVersion2, noMmap: true},
	}
	for _, tc := range cases {
		shardCases := []int{4}
		workerCases := []int{4}
		// Under the race detector one cell per case is the budget: the
		// race gates cover concurrency separately, and the full matrix is
		// swept by the plain `go test` pass.
		if tc.full && !raceEnabled {
			shardCases = []int{1, 4}
			workerCases = []int{1, 4}
		}
		for _, shards := range shardCases {
			for _, workers := range workerCases {
				tc, shards, workers := tc, shards, workers
				t.Run(fmt.Sprintf("%s/shards=%d/workers=%d", tc.name, shards, workers), func(t *testing.T) {
					if tc.noMmap {
						tierNoMmap = true
						defer func() { tierNoMmap = false }()
					}
					dir := t.TempDir()
					s := ingestTiered(t, shards, workers, tierFmtPolicy(dir, tc.cache))
					s.SetQueryWorkers(workers)
					if ts := s.TierStats(); ts.Segments == 0 {
						t.Fatalf("no seal happened: %+v", ts)
					}
					if vers := diskSegVersions(t, dir); vers[uint16(tc.format)] == 0 || len(vers) != 1 {
						t.Fatalf("on-disk segment versions %v, want only v%d", vers, tc.format)
					}
					compareTierPrints(t, tc.name, want, tierFingerprint(t, s))

					r := rand.New(rand.NewSource(int64(10*shards + workers)))
					nq := 12
					if testing.Short() || raceEnabled {
						nq = 4
					}
					for i := 0; i < nq; i++ {
						expr := genQueryExpr(r, 3)
						f, err := ParseFilter(expr)
						if err != nil {
							t.Fatalf("generated expression rejected: %q: %v", expr, err)
						}
						limit := 0
						if r.Intn(3) == 0 {
							limit = 1 + r.Intn(20)
						}
						wantSel := ref.Select(f, limit)
						wantN := ref.Count(f)
						if got := s.Select(f, limit); !reflect.DeepEqual(wantSel, got) {
							t.Fatalf("Select(%q, %d) diverged: %d vs %d rows", expr, limit, len(wantSel), len(got))
						}
						if gotN := s.Count(f); gotN != wantN {
							t.Fatalf("Count(%q) diverged: %d vs %d", expr, wantN, gotN)
						}
						s.SetScanQuery(true)
						scanSel := s.Select(f, limit)
						scanN := s.Count(f)
						s.SetScanQuery(false)
						if !reflect.DeepEqual(wantSel, scanSel) || wantN != scanN {
							t.Fatalf("scan reference diverged on %q", expr)
						}
					}

					for _, w := range [][2]time.Duration{{0, span / 4}, {span / 4, 3 * span / 4}, {span / 2, -1}} {
						a := ref.packetsBetween(w[0], w[1])
						b := s.packetsBetween(w[0], w[1])
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("PacketsBetween(%v,%v) differs: %d vs %d rows", w[0], w[1], len(a), len(b))
						}
					}

					if tc.cache > 0 {
						if ts := s.TierStats(); ts.CacheHits == 0 {
							t.Fatalf("repeated queries never hit the cache: %+v", ts)
						}
					}

					if _, err := s.CompactTier(); err != nil {
						t.Fatal(err)
					}
					compareTierPrints(t, tc.name+" post-compact", want, tierFingerprint(t, s))

					// Policy seals leave nothing undersized, so the pass
					// above may have been a no-op; this one has real input.
					flushUndersized(t, s)
					if n, err := s.CompactTier(); err != nil || n == 0 {
						t.Fatalf("CompactTier after flush merged %d segments, err %v", n, err)
					}
					compareTierPrints(t, tc.name+" post-flush-compact", want, tierFingerprint(t, s))
				})
			}
		}
	}
}

// TestSegsInWindowMatchesLinear checks the binary-search window pruning
// against the linear reference over random windows — in the sorted steady
// state and with a deliberately out-of-order registry, where the fallback
// must kick in.
func TestSegsInWindowMatchesLinear(t *testing.T) {
	mk := func(lo, hi time.Duration) *tierSegment {
		return &tierSegment{meta: segMeta{minTS: lo, maxTS: hi}}
	}
	linear := func(tr *tier, from, to time.Duration) []*tierSegment {
		var out []*tierSegment
		for _, sg := range tr.segs {
			if sg.meta.maxTS < from || (to >= 0 && sg.meta.minTS >= to) {
				continue
			}
			out = append(out, sg)
		}
		return out
	}
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		tr := &tier{}
		// Sorted bounds with random gaps and overlaps (maxTS can reach into
		// the next segment, as real seal chunking produces).
		cur, curHi := time.Duration(0), time.Duration(0)
		n := 1 + r.Intn(12)
		for i := 0; i < n; i++ {
			lo := cur + time.Duration(r.Intn(50))*time.Millisecond
			hi := lo + time.Duration(1+r.Intn(200))*time.Millisecond
			if hi < curHi {
				hi = curHi
			}
			tr.segs = append(tr.segs, mk(lo, hi))
			cur, curHi = lo, hi
		}
		tr.recomputeTSSortedLocked()
		if !tr.tsSorted {
			t.Fatalf("trial %d: sorted registry not detected as sorted", trial)
		}
		span := tr.segs[len(tr.segs)-1].meta.maxTS
		for q := 0; q < 40; q++ {
			from := time.Duration(r.Intn(int(span) + 1))
			to := time.Duration(r.Intn(int(span) + 1))
			if q%5 == 0 {
				to = -1
			}
			want := linear(tr, from, to)
			got := tr.segsInWindow(betweenWin(from, to))
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(want, []*tierSegment(got)) {
				t.Fatalf("trial %d: segsInWindow(%v,%v) = %d segs, linear reference = %d",
					trial, from, to, len(got), len(want))
			}
		}

		// Shuffle: the registry is no longer TS-sorted, the flag must flip
		// and the linear path must serve (they are the same code, so just
		// assert the flag — a sorted-path answer here could drop segments).
		if len(tr.segs) > 2 {
			tr.segs[0], tr.segs[len(tr.segs)-1] = tr.segs[len(tr.segs)-1], tr.segs[0]
			tr.recomputeTSSortedLocked()
			if tr.tsSorted && tr.segs[0].meta.minTS > tr.segs[len(tr.segs)-1].meta.minTS {
				t.Fatalf("trial %d: unsorted registry still flagged sorted", trial)
			}
			from, to := span/4, 3*span/4
			if !reflect.DeepEqual(linear(tr, from, to), []*tierSegment(tr.segsInWindow(betweenWin(from, to)))) {
				t.Fatalf("trial %d: unsorted fallback diverged", trial)
			}
		}
	}
}

// TestTierCacheLRU covers the cache container itself: LRU victim order,
// the byte budget, oversize rejection, racing fills and seq invalidation.
func TestTierCacheLRU(t *testing.T) {
	buf := func(n int) []byte { return make([]byte, n) }
	c := newTierCache(250)

	c.put(blockKey{1, 0}, buf(100))
	c.put(blockKey{1, 1}, buf(100))
	if _, ok := c.get(blockKey{1, 0}); !ok {
		t.Fatal("resident block missed")
	}
	// {1,0} is now MRU; inserting a third block must evict {1,1}.
	c.put(blockKey{2, 0}, buf(100))
	if _, ok := c.get(blockKey{1, 1}); ok {
		t.Fatal("LRU victim survived eviction")
	}
	if _, ok := c.get(blockKey{1, 0}); !ok {
		t.Fatal("MRU block evicted instead of LRU")
	}
	if bytes, entries := c.size(); bytes != 200 || entries != 2 {
		t.Fatalf("size = (%d, %d), want (200, 2)", bytes, entries)
	}
	if c.evictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions.Load())
	}

	// Oversize blocks are not admitted (and evict nothing).
	c.put(blockKey{3, 0}, buf(300))
	if _, ok := c.get(blockKey{3, 0}); ok {
		t.Fatal("oversize block admitted")
	}
	if bytes, entries := c.size(); bytes != 200 || entries != 2 {
		t.Fatalf("oversize put disturbed cache: (%d, %d)", bytes, entries)
	}

	// Racing fill of the same key keeps the incumbent and its accounting.
	first, _ := c.get(blockKey{1, 0})
	c.put(blockKey{1, 0}, buf(100))
	again, _ := c.get(blockKey{1, 0})
	if &first[0] != &again[0] {
		t.Fatal("racing fill replaced the incumbent buffer")
	}
	if bytes, _ := c.size(); bytes != 200 {
		t.Fatalf("racing fill double-counted: %d bytes", bytes)
	}

	// dropSegs removes exactly the named seq's blocks.
	c.dropSegs(map[uint64]bool{1: true})
	if _, ok := c.get(blockKey{1, 0}); ok {
		t.Fatal("dropped seq still resident")
	}
	if _, ok := c.get(blockKey{2, 0}); !ok {
		t.Fatal("unrelated seq dropped")
	}
	if bytes, entries := c.size(); bytes != 100 || entries != 1 {
		t.Fatalf("post-drop size = (%d, %d), want (100, 1)", bytes, entries)
	}
}

// TestTierCacheInvalidation drives the cache through the real store:
// repeated queries must hit, results must not change, and compaction must
// drop every block belonging to a replaced segment.
func TestTierCacheInvalidation(t *testing.T) {
	// The budget must hold the whole decoded working set: LRU thrashes on
	// a strict scan cycle one block over budget (0 hits), which is not
	// what this test is about.
	s := ingestTiered(t, 4, 4, tierFmtPolicy(t.TempDir(), 64<<20))
	f, err := ParseFilter("len > 100")
	if err != nil {
		t.Fatal(err)
	}
	first := s.Select(f, 0)
	ts0 := s.TierStats()
	if ts0.CacheMisses == 0 || ts0.CacheEntries == 0 {
		t.Fatalf("cold query did not populate the cache: %+v", ts0)
	}
	second := s.Select(f, 0)
	ts1 := s.TierStats()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached query changed the result")
	}
	if ts1.CacheHits <= ts0.CacheHits {
		t.Fatalf("warm query did not hit the cache: %+v -> %+v", ts0, ts1)
	}

	tr := s.tier.Load()
	seqs := func() map[uint64]bool {
		out := map[uint64]bool{}
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		for _, sg := range tr.segs {
			out[sg.seq] = true
		}
		return out
	}
	compactAndCheck := func() int {
		t.Helper()
		before := seqs()
		n, err := s.CompactTier()
		if err != nil {
			t.Fatal(err)
		}
		live := seqs()
		tr.cache.mu.Lock()
		var total int64
		for k, e := range tr.cache.entries {
			total += int64(len(e.Value.(*cacheEnt).buf))
			if before[k.seq] && !live[k.seq] {
				tr.cache.mu.Unlock()
				t.Fatalf("cache still holds block %v of a compacted-away segment", k)
			}
		}
		if total != tr.cache.bytes {
			tr.cache.mu.Unlock()
			t.Fatalf("cache byte accounting drifted: entries sum %d, bytes %d", total, tr.cache.bytes)
		}
		tr.cache.mu.Unlock()
		if got := s.Select(f, 0); !reflect.DeepEqual(first, got) {
			t.Fatal("post-compaction query changed the result")
		}
		return n
	}
	compactAndCheck()

	// Policy seals leave nothing undersized, so the pass above may have
	// been a no-op. Flush two undersized segments, query so their blocks
	// are cached, and compact them away.
	entries := s.TierStats().CacheEntries
	flushUndersized(t, s)
	if got := s.Select(f, 0); !reflect.DeepEqual(first, got) {
		t.Fatal("post-flush query changed the result")
	}
	if got := s.TierStats().CacheEntries; got <= entries {
		t.Fatalf("flushed segments were never cached: %d entries before the flush, %d after", entries, got)
	}
	if n := compactAndCheck(); n == 0 {
		t.Fatal("CompactTier after flush merged nothing")
	}
}

// TestSegmentPartialDecodeIsolatesCorruptBlock: with v2 block framing, a
// corrupt DEFLATE stream in one block must not poison selective decodes
// that never touch it — and must still fail the full decode loudly.
func TestSegmentPartialDecodeIsolatesCorruptBlock(t *testing.T) {
	rows := segTestRows(t, 600)
	blob, _, err := encodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := parseSegment(blob)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sb.parseData()
	if err != nil {
		t.Fatal(err)
	}
	if d.nblocks < 3 {
		t.Fatalf("fixture spans %d blocks, need >= 3", d.nblocks)
	}

	// Zero the head of the last block's stream (d.streams aliases blob),
	// then re-seal the column CRC so only block-level validation can
	// object.
	last := d.nblocks - 1
	for i := 0; i < 8 && i < d.compLen[last]; i++ {
		d.streams[d.compOff[last]+i] = 0
	}
	off := segHeaderSize
	for {
		id, n := blob[off], int(binary.LittleEndian.Uint32(blob[off+1:off+5]))
		if id == segColData {
			binary.LittleEndian.PutUint32(blob[off+5:off+9], frame.Sum(blob[off+9:off+9+n]))
			break
		}
		off += 9 + n
	}

	sb2, err := parseSegment(blob)
	if err != nil {
		t.Fatal(err)
	}
	ids, tss, err := sb2.decodeTimeID()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sb2.decodeIndex()
	if err != nil {
		t.Fatal(err)
	}
	sel := make([]uint32, 10)
	for i := range sel {
		sel[i] = uint32(i)
	}
	got, err := sb2.rowsAt(sel, ix, ids, tss, nil)
	if err != nil {
		t.Fatalf("selective decode of clean blocks failed: %v", err)
	}
	if !reflect.DeepEqual(got, rows[:10]) {
		t.Fatal("selective decode of clean blocks returned wrong rows")
	}
	if _, err := sb2.rowsAt([]uint32{uint32(len(rows) - 1)}, ix, ids, tss, nil); err == nil {
		t.Fatal("decode touching the corrupt block succeeded")
	}
	if _, err := decodeSegmentRows(blob); err == nil {
		t.Fatal("full decode of the corrupt segment succeeded")
	}
}
