package datastore

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"campuslab/internal/frame"
)

// Tests for the segment directory and the row cursor: residency under the
// shared cache budget, invalidation, what a query may and may not touch.

// rowsAt keeps the selective-decode call shape of the segment tests that
// predate the row cursor (the production rowsAt is gone): it builds sb's
// directory and materialises sel through a blob-backed cursor, which is
// the path decodeBlobRows takes. The index and ID/TS arguments the old
// signature threaded through now live in the directory.
func (sb *segBlob) rowsAt(sel []uint32, _ *segPostings, _ []PacketID, _ []time.Duration, _ any) ([]StoredPacket, error) {
	cur, err := blobCursor(sb)
	if err != nil {
		return nil, err
	}
	defer cur.close()
	out := make([]StoredPacket, len(sel))
	for i, r := range sel {
		if err := cur.row(int(r), &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cacheHas reports residency without touching LRU order or hit counters.
func cacheHas(c *tierCache, k blockKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// checkCacheAccounting recomputes every byte total from the entries,
// checks that each entry sits in the segment it claims and that the two
// segments hold exactly the map's entries, and checks the budget and the
// protected segment's cap.
func checkCacheAccounting(t *testing.T, c *tierCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	inList := map[*list.Element]bool{}
	for _, seg := range []*list.List{&c.probation, &c.protected} {
		for e := seg.Front(); e != nil; e = e.Next() {
			if e.Value.(*cacheEnt).protected != (seg == &c.protected) {
				t.Fatalf("entry %v sits in the other segment", e.Value.(*cacheEnt).key)
			}
			inList[e] = true
		}
	}
	var blocks, dirs, prot int64
	ndirs := 0
	for k, e := range c.entries {
		ent := e.Value.(*cacheEnt)
		if !inList[e] || ent.key != k {
			t.Fatalf("entry %v: map and segment lists disagree", k)
		}
		if (k.block == dirBlock) != (ent.dir != nil) {
			t.Fatalf("entry %v: key kind and payload kind disagree", k)
		}
		if ent.dir != nil {
			dirs += ent.dir.bytes
			ndirs++
		} else {
			blocks += ent.size() // a block's bytes or a stripe's summaries
		}
		if ent.protected {
			prot += ent.size()
		}
	}
	if blocks != c.bytes || dirs != c.dirBytes || ndirs != c.dirs || prot != c.protBytes {
		t.Fatalf("accounting drifted: entries sum (%d blocks, %d dirs in %d, %d protected), cache says (%d, %d in %d, %d)",
			blocks, dirs, ndirs, prot, c.bytes, c.dirBytes, c.dirs, c.protBytes)
	}
	if c.bytes+c.dirBytes > c.max {
		t.Fatalf("budget %d exceeded: %d block + %d directory bytes", c.max, c.bytes, c.dirBytes)
	}
	if c.protBytes > c.max/5*protectedFifths {
		t.Fatalf("protected segment holds %d bytes, over %d/5 of the budget %d", c.protBytes, protectedFifths, c.max)
	}
	if len(c.entries) != len(inList) {
		t.Fatalf("map holds %d entries, segments %d", len(c.entries), len(inList))
	}
}

// TestTierCacheMixedLRU: directories and blocks are entries of one
// segmented LRU under one budget — a touch protects either kind, either
// kind ages out untouched, and each keeps its own byte count.
func TestTierCacheMixedLRU(t *testing.T) {
	buf := func(n int) []byte { return make([]byte, n) }
	c := newTierCache(1000)
	d1 := &segDir{bytes: 400}
	if got := c.putDir(1, d1); got != d1 {
		t.Fatal("first putDir did not return its own directory")
	}
	c.put(blockKey{1, 0}, buf(300))
	c.put(blockKey{1, 1}, buf(300))
	checkCacheAccounting(t, c)
	if c.evictions.Load() != 0 {
		t.Fatal("evicted while exactly at budget")
	}

	// Touch the directory, then scan a block stream three times the
	// budget past it once: every block is a victim in turn, the touched
	// directory never is.
	if got, ok := c.getDir(1); !ok || got != d1 {
		t.Fatal("resident directory missed")
	}
	for i := 0; i < 10; i++ {
		c.put(blockKey{2, i}, buf(300))
		if !cacheHas(c, blockKey{1, dirBlock}) {
			t.Fatalf("touched directory evicted by one-pass block %d", i)
		}
		checkCacheAccounting(t, c)
	}
	if cacheHas(c, blockKey{1, 0}) || cacheHas(c, blockKey{1, 1}) {
		t.Fatal("untouched blocks survived a scan past the budget")
	}
	if b, n := c.size(); b != 600 || n != 2 {
		t.Fatalf("block size = (%d, %d), want (600, 2)", b, n)
	}
	if b, n := c.dirSize(); b != 400 || n != 1 {
		t.Fatalf("dir size = (%d, %d), want (400, 1)", b, n)
	}

	// A racing build keeps the incumbent.
	if got := c.putDir(1, &segDir{bytes: 400}); got != d1 {
		t.Fatal("racing putDir replaced the incumbent")
	}
	checkCacheAccounting(t, c)

	// Untouched, a directory ages out like any entry: dir 3 enters
	// probation (evicting the scan's two blocks) and the second block
	// after it pushes it off the cold end.
	c.putDir(3, &segDir{bytes: 300})
	c.put(blockKey{4, 0}, buf(300))
	if !cacheHas(c, blockKey{3, dirBlock}) {
		t.Fatal("directory evicted while the budget still held it")
	}
	c.put(blockKey{4, 1}, buf(300))
	if cacheHas(c, blockKey{3, dirBlock}) {
		t.Fatal("untouched directory survived as probation's oldest entry over budget")
	}
	if b, n := c.dirSize(); b != 400 || n != 1 {
		t.Fatalf("dir size after eviction = (%d, %d), want (400, 1)", b, n)
	}
	if _, ok := c.getDir(3); ok {
		t.Fatal("evicted directory still served")
	}
	checkCacheAccounting(t, c)

	// A directory larger than the whole budget is not admitted, evicts
	// nothing, and is handed back for the query that built it.
	before := c.evictions.Load()
	huge := &segDir{bytes: 2000}
	if got := c.putDir(7, huge); got != huge {
		t.Fatal("oversize putDir did not hand the directory back")
	}
	if cacheHas(c, blockKey{7, dirBlock}) || c.evictions.Load() != before {
		t.Fatal("oversize directory admitted or evicted something")
	}

	// dropSegs takes a segment's directory with its blocks.
	c.dropSegs(map[uint64]bool{1: true, 2: true, 4: true})
	if b, n := c.size(); b != 0 || n != 0 {
		t.Fatalf("blocks left after dropSegs: (%d, %d)", b, n)
	}
	if b, n := c.dirSize(); b != 0 || n != 0 {
		t.Fatalf("directories left after dropSegs: (%d, %d)", b, n)
	}
	checkCacheAccounting(t, c)
	if c.dirHits.Load() != 1 || c.dirMisses.Load() != 1 || c.hits.Load() != 0 || c.misses.Load() != 0 {
		t.Fatalf("directory traffic leaked into the block series: dir %d/%d, block %d/%d",
			c.dirHits.Load(), c.dirMisses.Load(), c.hits.Load(), c.misses.Load())
	}
}

// TestTierCacheScanResistant: a working set touched twice survives a
// one-pass scan three times the budget, and the protected segment's
// overflow goes back through probation rather than out of the cache.
//
// The limit: a strict cycle over more blocks than the budget holds still
// gets 0 hits, exactly as under a plain LRU — every block is evicted from
// probation before its second touch comes round, so nothing is promoted.
// Scan resistance protects what is reused within the budget, not a loop
// larger than it.
func TestTierCacheScanResistant(t *testing.T) {
	buf := func(n int) []byte { return make([]byte, n) }
	c := newTierCache(1000)
	for i := 0; i < 5; i++ { // the working set: 500 bytes, touched twice
		c.put(blockKey{1, i}, buf(100))
		if _, ok := c.get(blockKey{1, i}); !ok {
			t.Fatalf("working-set block %d missed right after put", i)
		}
	}
	for i := 0; i < 30; i++ { // one pass over 3000 bytes
		c.put(blockKey{2, i}, buf(100))
		checkCacheAccounting(t, c)
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.get(blockKey{1, i}); !ok {
			t.Fatalf("working-set block %d evicted by a one-pass scan", i)
		}
	}
	if n := c.evictions.Load(); n != 25 {
		t.Fatalf("evictions = %d, want 25: the scan's own oldest blocks", n)
	}

	// Protected overflow is demoted, not evicted: promoting probation's
	// 500 bytes takes protected to 1000, past its 800-byte cap, and its two
	// oldest entries fall back to probation's front, still resident.
	for i := 25; i < 30; i++ {
		c.get(blockKey{2, i})
	}
	checkCacheAccounting(t, c)
	if b, n := c.size(); b != 1000 || n != 10 {
		t.Fatalf("size = (%d, %d), want (1000, 10): nothing leaves on promotion", b, n)
	}
	if c.protBytes != 800 {
		t.Fatalf("protected holds %d bytes, want its 800-byte cap", c.protBytes)
	}

	// The limit: a strict cycle one block over budget never hits.
	c = newTierCache(1000)
	hits := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 11; i++ {
			if _, ok := c.get(blockKey{3, i}); ok {
				hits++
			} else {
				c.put(blockKey{3, i}, buf(100))
			}
		}
	}
	if hits != 0 {
		t.Fatalf("a cycle over budget hit %d times; the documented limit moved", hits)
	}
	checkCacheAccounting(t, c)
}

// coldOnly builds a store whose every packet is cold.
func coldOnly(t *testing.T, pol TierPolicy) *Store {
	t.Helper()
	s := ingestTiered(t, 4, 1, pol)
	if _, err := s.sealHot(0); err != nil {
		t.Fatal(err)
	}
	s.SetQueryWorkers(1)
	return s
}

// liveSeqs returns the registered segments' seqs.
func liveSeqs(tr *tier) map[uint64]bool {
	out := map[uint64]bool{}
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	for _, sg := range tr.segs {
		out[sg.seq] = true
	}
	return out
}

// TestSegDirBudgetRespected: the directories of a queried store are
// resident, charged, and inside the budget together with the blocks.
func TestSegDirBudgetRespected(t *testing.T) {
	const budget = 2 << 20 // a quarter of the decoded rows: blocks churn, directories must survive on use
	s := coldOnly(t, tierFmtPolicy(t.TempDir(), budget))
	for _, expr := range queryExprs {
		selectBoth(t, s, expr, 0)
	}
	ts := s.TierStats()
	if ts.DirEntries == 0 || ts.DirBytes == 0 || ts.DirMisses == 0 || ts.DirHits == 0 {
		t.Fatalf("directories never became resident: %+v", ts)
	}
	if ts.CacheBytes+ts.DirBytes > budget {
		t.Fatalf("budget %d exceeded: %d block + %d directory bytes", budget, ts.CacheBytes, ts.DirBytes)
	}
	checkCacheAccounting(t, s.tier.Load().cache)
	// A 256-row segment's directory is a few KB: the charge must be in the
	// right range, not a placeholder.
	if per := ts.DirBytes / int64(ts.DirEntries); per < 4<<10 || per > 64<<10 {
		t.Fatalf("directory charged %d bytes for a 256-row segment", per)
	}
}

// TestSegDirOversizeNotAdmitted: with a budget smaller than any directory
// nothing becomes resident — every query builds what it needs — and the
// answers do not change.
func TestSegDirOversizeNotAdmitted(t *testing.T) {
	s := coldOnly(t, tierFmtPolicy(t.TempDir(), 1<<10))
	limits := []int{0, 7}
	if raceEnabled {
		limits = []int{7}
	}
	for _, expr := range queryExprs {
		for _, limit := range limits {
			selectBoth(t, s, expr, limit)
		}
	}
	ts := s.TierStats()
	if ts.Err != nil {
		t.Fatal(ts.Err)
	}
	if ts.DirEntries != 0 || ts.DirBytes != 0 {
		t.Fatalf("a directory fit a 1 KiB budget: %+v", ts)
	}
	if ts.DirMisses == 0 || ts.DirHits != 0 {
		t.Fatalf("directory traffic %d hits / %d misses, want misses only", ts.DirHits, ts.DirMisses)
	}
	if ts.CacheBytes > 1<<10 {
		t.Fatalf("blocks over budget: %d", ts.CacheBytes)
	}
}

// TestSegDirDroppedWithSegments: compaction and retention drop the
// directories of the segments they remove.
func TestSegDirDroppedWithSegments(t *testing.T) {
	s := ingestTiered(t, 4, 1, tierFmtPolicy(t.TempDir(), 64<<20))
	s.SetQueryWorkers(1)
	tr := s.tier.Load()
	f := MustFilter("ts >= 0 && ip") // no zone map prunes it: every segment is opened
	assertOnlyLive := func(when string) {
		t.Helper()
		live := liveSeqs(tr)
		tr.cache.mu.Lock()
		for k := range tr.cache.entries {
			if !live[k.seq] {
				tr.cache.mu.Unlock()
				t.Fatalf("%s: cache still holds %v of a removed segment", when, k)
			}
		}
		tr.cache.mu.Unlock()
		checkCacheAccounting(t, tr.cache)
	}
	flushUndersized(t, s)
	want := s.Count(f)
	if ts := s.TierStats(); ts.DirEntries != ts.Segments {
		t.Fatalf("a Count over everything left %d directories for %d segments", ts.DirEntries, ts.Segments)
	}
	if n, err := s.CompactTier(); err != nil || n == 0 {
		t.Fatalf("CompactTier merged %d segments, err %v", n, err)
	}
	assertOnlyLive("post-compact")
	if ts := s.TierStats(); ts.DirEntries >= ts.Segments+2 || ts.DirEntries == 0 {
		t.Fatalf("post-compact: %d directories, %d segments", ts.DirEntries, ts.Segments)
	}
	if got := s.Count(f); got != want {
		t.Fatalf("Count changed across compaction: %d -> %d", want, got)
	}
	if ts := s.TierStats(); ts.DirEntries != ts.Segments {
		t.Fatalf("post-compact query left %d directories for %d segments", ts.DirEntries, ts.Segments)
	}

	dropped, err := s.RetainCold(time.Duration(s.lastTS.Load()) / 2)
	if err != nil || dropped == 0 {
		t.Fatalf("RetainCold dropped %d segments, err %v", dropped, err)
	}
	assertOnlyLive("post-retain")
	if ts := s.TierStats(); ts.DirEntries != ts.Segments {
		t.Fatalf("post-retain: %d directories, %d segments", ts.DirEntries, ts.Segments)
	}
}

// corruptColumn flips one byte in the middle of column col's payload in a
// segment file; reseal also rewrites the column's CRC so that only the
// structural checks can object.
func corruptColumn(t *testing.T, path string, col byte, reseal bool) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderSize
	for {
		id, n := b[off], int(binary.LittleEndian.Uint32(b[off+1:off+5]))
		if id == col {
			b[off+9+n/2] ^= 0x55
			if reseal {
				binary.LittleEndian.PutUint32(b[off+5:off+9], frame.Sum(b[off+9:off+9+n]))
			}
			break
		}
		off += 9 + n
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegDirCorruptColumnCachesNothing: a segment whose index, ts or dict
// column is damaged gets no directory — the query degrades with a typed
// error and the cache stays empty, so the next query checks again.
func TestSegDirCorruptColumnCachesNothing(t *testing.T) {
	cases := []struct {
		name   string
		col    byte
		reseal bool
	}{
		{"index-crc", segColIndex, false},
		{"ts-crc", segColTS, false},
		{"dict-crc", segColDict, false},
		{"ts-structure", segColTS, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := ingestTiered(t, 4, 1, TierPolicy{})
			if err := s.EnableTiering(TierPolicy{Dir: dir, SegmentPackets: 1 << 20, CacheBytes: 64 << 20}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.sealHot(0); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix))
			if err != nil || len(segs) != 1 {
				t.Fatalf("want one segment file, got %v (%v)", segs, err)
			}
			corruptColumn(t, segs[0], tc.col, tc.reseal)
			// Metadata-only on a healthy store: it must still notice.
			f := MustFilter("ts >= 0 && proto == udp")
			for round := 0; round < 2; round++ {
				if n := s.Count(f); n != 0 {
					t.Fatalf("round %d: counted %d rows out of a corrupt segment", round, n)
				}
				ts := s.TierStats()
				if !errors.Is(ts.Err, errSegmentCorrupt) || ts.CorruptSegments != uint64(round+1) {
					t.Fatalf("round %d: corruption not surfaced typed, once per query: err %v, corrupt %d", round, ts.Err, ts.CorruptSegments)
				}
				if ts.DirEntries != 0 || ts.DirBytes != 0 || ts.CacheEntries != 0 || ts.DirMisses != uint64(round+1) {
					t.Fatalf("round %d: a failed build left something cached: %+v", round, ts)
				}
			}
		})
	}
}

// coldCounters snapshots everything a query can move on the cold read
// path.
type coldCounters struct {
	blocks, bytes, rows uint64
	hits, misses        uint64
}

func readColdCounters(s *Store) coldCounters {
	ts := s.TierStats()
	return coldCounters{
		blocks: obsQueryBlocksInflated.Value(), bytes: obsQueryBytesInflated.Value(), rows: obsQueryRowsDecoded.Value(),
		hits: ts.CacheHits, misses: ts.CacheMisses,
	}
}

// storedTimes returns the distinct stored timestamps, ascending.
func storedTimes(s *Store) []time.Duration {
	var out []time.Duration
	s.Scan(func(sp *StoredPacket) bool {
		if len(out) == 0 || out[len(out)-1] != sp.TS {
			out = append(out, sp.TS)
		}
		return true
	})
	return out
}

// TestColdCountWindowedTouchesNoBlock: an indexable Count over a window is
// the size of a posting-list intersection clipped to the window — on a
// cold store it inflates nothing, decodes no row and never asks the block
// cache, whatever the ts operators.
func TestColdCountWindowedTouchesNoBlock(t *testing.T) {
	for _, cache := range []int64{0, 64 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) {
			s := coldOnly(t, tierFmtPolicy(t.TempDir(), cache))
			tss := storedTimes(s)
			lo, hi := tss[len(tss)/4], tss[3*len(tss)/4]
			exprs := []string{
				fmt.Sprintf("ts >= %dns && ts < %dns && proto == udp && dst.port == 53", lo, hi),
				fmt.Sprintf("ts > %dns && ts <= %dns && udp", lo, hi),
				fmt.Sprintf("ts == %dns && proto == udp", lo),
				fmt.Sprintf("ts >= %dns && label == dns-amp", lo),
				"ts < -5s && udp",
				"dns && dns.resp",
			}
			// Reference answers first: the scan twin inflates plenty.
			want := make([]int, len(exprs))
			s.SetScanQuery(true)
			for i, expr := range exprs {
				want[i] = s.Count(MustFilter(expr))
			}
			s.SetScanQuery(false)
			if want[0] == 0 || want[1] == 0 {
				t.Fatal("window holds no match; the test would prove nothing")
			}
			before := readColdCounters(s)
			for i, expr := range exprs {
				f := MustFilter(expr)
				if !f.plan.indexable || f.plan.residual != nil {
					t.Fatalf("%q: plan should be index keys plus a window only", expr)
				}
				if got := s.Count(f); got != want[i] {
					t.Fatalf("Count(%q) = %d, scan reference %d", expr, got, want[i])
				}
			}
			if after := readColdCounters(s); after != before {
				t.Fatalf("windowed indexable Counts touched data blocks: %+v -> %+v", before, after)
			}
			// The same plan with a residual must pay for its rows, out of
			// the summary column: still no block inflates.
			s.Count(MustFilter(exprs[0] + " && len > 0"))
			if after := readColdCounters(s); after.rows == before.rows {
				t.Fatal("a residual Count materialised nothing; the counters are not wired")
			} else if after.blocks != before.blocks || after.bytes != before.bytes {
				t.Fatalf("a residual Count inflated frames: %+v -> %+v", before, after)
			}
		})
	}
}

// TestColdResidualCountInflatesNothing: a residual no index answers reads
// the summary column, so on an all-cold store a Count with one — a TCP
// flag, ttl, len — inflates no block, and a limited Select inflates only
// the blocks of the rows it returns. One segment holds every row, so the
// rows its run returns are the rows the Select returns.
func TestColdResidualCountInflatesNothing(t *testing.T) {
	for _, cache := range []int64{0, 64 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) {
			s := ingestTiered(t, 4, 1, TierPolicy{})
			if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), SegmentPackets: 1 << 20, CacheBytes: cache}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.sealHot(0); err != nil {
				t.Fatal(err)
			}
			s.SetQueryWorkers(1)
			if st := s.Stats(); st.Packets != 0 || st.Segments != 1 {
				t.Fatalf("want every row cold in one segment: %+v", st)
			}
			tr := s.tier.Load()
			cur, err := tr.openSeg(tr.segs[0], false, nil)
			if err != nil {
				t.Fatal(err)
			}
			dir := cur.dir
			cur.close()
			twin := ingestTiered(t, 4, 1, TierPolicy{}) // untiered: the expected counts, inflating nothing of s's
			for _, expr := range []string{"proto == tcp && tcp.syn", "ttl > 60 && len < 200"} {
				f := MustFilter(expr)
				if f.plan.indexable && f.plan.residual == nil {
					t.Fatalf("%q: the index answers it alone; the test would prove nothing", expr)
				}
				want := twin.Count(f)
				if want == 0 {
					t.Fatalf("%q matches nothing; the test would prove nothing", expr)
				}
				before := readColdCounters(s)
				if got := s.Count(f); got != want {
					t.Fatalf("Count(%q) = %d, scan reference %d", expr, got, want)
				}
				after := readColdCounters(s)
				if after.blocks != before.blocks || after.bytes != before.bytes {
					t.Fatalf("Count(%q) inflated %d blocks", expr, after.blocks-before.blocks)
				}
				if after.rows == before.rows {
					t.Fatalf("Count(%q) read no row; the residual was not evaluated", expr)
				}

				// The blocks the k rows sit in, less those an earlier
				// Select left in the cache, are what must inflate.
				const k = 7
				wantRows := twin.Select(f, k)
				blocks, fresh := map[int]bool{}, 0
				for _, sp := range wantRows {
					b := slices.Index(dir.ids, sp.ID) / dir.data.blockRows
					if !blocks[b] && (tr.cache == nil || !cacheHas(tr.cache, blockKey{tr.segs[0].seq, b})) {
						fresh++
					}
					blocks[b] = true
				}
				if len(wantRows) != k || len(blocks) >= dir.data.nblocks/2 {
					t.Fatalf("Select(%q, %d) returns %d rows in %d of %d blocks", expr, k, len(wantRows), len(blocks), dir.data.nblocks)
				}
				before = readColdCounters(s)
				if rows := s.Select(f, k); !reflect.DeepEqual(rows, wantRows) {
					t.Fatalf("Select(%q, %d) differs from the untiered twin's", expr, k)
				}
				if got := readColdCounters(s).blocks - before.blocks; got != uint64(fresh) {
					t.Fatalf("Select(%q, %d) inflated %d blocks; its rows sit in %d, %d of them not cached", expr, k, got, len(blocks), fresh)
				}
			}
		})
	}
}

// TestColdSelectLimitStopsDecoding: the cursor materialises one row at a
// time, so Select(limit=k) inflates the blocks up to the k-th match's and
// none after it.
func TestColdSelectLimitStopsDecoding(t *testing.T) {
	s := ingestTiered(t, 4, 1, TierPolicy{})
	if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), SegmentPackets: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.sealHot(0); err != nil {
		t.Fatal(err)
	}
	s.SetQueryWorkers(1)
	tr := s.tier.Load()
	cur, err := tr.openSeg(tr.segs[0], false, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := cur.dir
	cur.close()
	if dir.data.nblocks < 8 {
		t.Fatalf("fixture spans %d blocks, need several", dir.data.nblocks)
	}

	const k = 5
	// No residual: the first k candidates are the result.
	f := MustFilter("proto == udp")
	cand, _ := (&segCursor{dir: dir}).candidates(&f.plan, 0, len(dir.ids))
	if len(cand) < 4*k {
		t.Fatalf("only %d candidates", len(cand))
	}
	blocks := map[int]bool{}
	for _, r := range cand[:k] {
		blocks[int(r)/dir.data.blockRows] = true
	}
	before := readColdCounters(s)
	got := s.Select(f, k)
	after := readColdCounters(s)
	if len(got) != k || got[k-1].ID != dir.ids[cand[k-1]] {
		t.Fatalf("Select(limit=%d) returned %d rows", k, len(got))
	}
	if after.rows-before.rows != k || after.blocks-before.blocks != uint64(len(blocks)) {
		t.Fatalf("limit %d decoded %d rows in %d blocks, want %d rows in %d blocks",
			k, after.rows-before.rows, after.blocks-before.blocks, k, len(blocks))
	}

	// With a residual the walk runs to the k-th match and stops there, and
	// only the blocks of the k returned rows inflate: the residual reads
	// the summary column.
	f = MustFilter("proto == udp && len > 90")
	all := s.Select(f, 0)
	if len(all) < 4*k {
		t.Fatalf("only %d matches", len(all))
	}
	cand, _ = (&segCursor{dir: dir}).candidates(&f.plan, 0, len(dir.ids))
	walked := 0
	for _, r := range cand {
		walked++
		if dir.ids[r] == all[k-1].ID {
			break
		}
	}
	blocks = map[int]bool{}
	for _, sp := range all[:k] {
		blocks[slices.Index(dir.ids, sp.ID)/dir.data.blockRows] = true
	}
	before = readColdCounters(s)
	got = s.Select(f, k)
	after = readColdCounters(s)
	if !reflect.DeepEqual(got, all[:k]) {
		t.Fatal("limited Select is not a prefix of the unlimited one")
	}
	if after.rows-before.rows != uint64(walked) || after.blocks-before.blocks != uint64(len(blocks)) {
		t.Fatalf("limit %d decoded %d rows and inflated %d blocks, want %d rows (to the k-th match, no further) and the %d blocks of the rows returned",
			k, after.rows-before.rows, after.blocks-before.blocks, walked, len(blocks))
	}
}

// TestGetBitsMatchesBitLoop checks the word-load extractor against the
// one-bit-per-iteration definition at every offset, width and tail.
func TestGetBitsMatchesBitLoop(t *testing.T) {
	slow := func(src []byte, bitOff, width int) uint64 {
		var v uint64
		for w := 0; w < width; w++ {
			if src[(bitOff+w)/8]&(1<<((bitOff+w)%8)) != 0 {
				v |= 1 << w
			}
		}
		return v
	}
	src := make([]byte, 23)
	for i := range src {
		src[i] = byte(i*37 + 11)
	}
	for width := 1; width <= 22; width++ {
		for off := 0; off+width <= len(src)*8; off++ {
			if got, want := getBits(src, off, width), slow(src, off, width); got != want {
				t.Fatalf("getBits(off=%d, width=%d) = %x, want %x", off, width, got, want)
			}
		}
	}
	// putBits round trip, the writer's side of the same packing.
	packed := make([]byte, 16)
	for i := 0; i < 9; i++ {
		putBits(packed, i*13, 13, uint64(i*601)&0x1fff)
	}
	for i := 0; i < 9; i++ {
		if got := getBits(packed, i*13, 13); got != uint64(i*601)&0x1fff {
			t.Fatalf("code %d round-tripped to %d", i, got)
		}
	}
}
