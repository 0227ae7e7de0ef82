package datastore

import (
	"sync/atomic"
	"time"

	"campuslab/internal/obs"
	"campuslab/internal/parallel"
	"campuslab/internal/traffic"
)

// Query-engine metrics: planner decisions, index effectiveness (rows
// touched vs rows returned), and end-to-end latency. These make the
// planner auditable from labd METRICS / the /metrics endpoint.
var (
	obsQueryPlannerIndex = obs.Default.Counter("campuslab_query_planner_total", "path", "index")
	obsQueryPlannerScan  = obs.Default.Counter("campuslab_query_planner_total", "path", "scan")
	obsQueryPlannerRef   = obs.Default.Counter("campuslab_query_planner_total", "path", "reference")
	// Runs — hot shards and cold segments alike — that answered from their
	// posting lists; the series keeps the name it had when only shards did.
	obsQueryIndexRuns   = obs.Default.Counter("campuslab_query_index_shards_total")
	obsQueryRowsScanned = obs.Default.Counter("campuslab_query_rows_scanned_total")
	obsQueryRowsMatched = obs.Default.Counter("campuslab_query_rows_matched_total")
	// What the cold tier paid to materialise rows: data blocks inflated
	// (block-cache misses), their decompressed bytes, and rows re-parsed
	// out of blocks, cached or not. An indexable Count over a window adds
	// nothing to any of them.
	obsQueryBlocksInflated = obs.Default.Counter("campuslab_query_blocks_inflated_total")
	obsQueryBytesInflated  = obs.Default.Counter("campuslab_query_bytes_inflated_total")
	obsQueryRowsDecoded    = obs.Default.Counter("campuslab_query_rows_decoded_total")
	obsQuerySeconds        = obs.Default.Histogram("campuslab_query_seconds",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1})
)

// queryStats accumulates per-query execution counters across the run
// goroutines, then flushes into the registry once.
type queryStats struct {
	indexRuns      atomic.Uint64
	rowsScanned    atomic.Uint64
	blocksInflated atomic.Uint64
	bytesInflated  atomic.Uint64
	rowsDecoded    atomic.Uint64
}

func (qs *queryStats) flush(matched int, indexable bool) {
	if indexable {
		obsQueryPlannerIndex.Inc()
	} else {
		obsQueryPlannerScan.Inc()
	}
	obsQueryIndexRuns.Add(qs.indexRuns.Load())
	obsQueryRowsScanned.Add(qs.rowsScanned.Load())
	obsQueryRowsMatched.Add(uint64(matched))
	qs.flushCold()
}

// flushCold publishes the cold-materialisation counters alone — all the
// reference scan paths have to report.
func (qs *queryStats) flushCold() {
	obsQueryBlocksInflated.Add(qs.blocksInflated.Load())
	obsQueryBytesInflated.Add(qs.bytesInflated.Load())
	obsQueryRowsDecoded.Add(qs.rowsDecoded.Load())
}

// mergeCursor walks several shard packet slabs in global (TS, ID) order.
// Each shard slab is already sorted by (TS, ID), so the merge is a k-way
// min-pick; shard count is small (≤256), keeping the pick linear scan
// cheaper than a heap at campus scale.
type mergeCursor struct {
	slabs [][]StoredPacket
	pos   []int
}

func newMergeCursor(slabs [][]StoredPacket) *mergeCursor {
	return &mergeCursor{slabs: slabs, pos: make([]int, len(slabs))}
}

// next returns the globally next packet, or nil when exhausted.
func (m *mergeCursor) next() *StoredPacket {
	best := -1
	var bestPkt *StoredPacket
	for si, slab := range m.slabs {
		p := m.pos[si]
		if p >= len(slab) {
			continue
		}
		sp := &slab[p]
		if best < 0 || sp.TS < bestPkt.TS || (sp.TS == bestPkt.TS && sp.ID < bestPkt.ID) {
			best, bestPkt = si, sp
		}
	}
	if best < 0 {
		return nil
	}
	m.pos[best]++
	return bestPkt
}

// scanRange visits packets with TS inside w in global (TS, ID) order,
// stopping early if visit returns false. Shard read locks are held for the
// duration. On a tiered store the cold segments in the window decode into
// extra sorted runs that join the same merge — the tier read lock is taken
// before the shard locks (the global lock order) and held throughout, so
// no seal can move rows between tiers mid-scan.
func (s *Store) scanRange(w tsWin, visit func(*StoredPacket) bool) {
	var cold [][]StoredPacket
	if tr := s.tier.Load(); tr != nil {
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		cold = s.coldWindowRuns(tr, w)
	}
	unlock := s.rlockAll()
	defer unlock()
	slabs := make([][]StoredPacket, len(s.shards), len(s.shards)+len(cold))
	for i, sh := range s.shards {
		lo, hi := sh.span(w)
		slabs[i] = sh.packets[lo:hi]
	}
	slabs = append(slabs, cold...)
	cur := newMergeCursor(slabs)
	for sp := cur.next(); sp != nil; sp = cur.next() {
		if !visit(sp) {
			return
		}
	}
}

// Select returns packets matching the filter in global (TS, ID) order,
// regardless of sharding. limit 0 means unlimited. The planner runs
// index-assisted, shard-parallel execution; results are byte-identical to
// the serial full scan (forced via SetScanQuery).
func (s *Store) Select(f *Filter, limit int) []StoredPacket {
	start := time.Now()
	defer func() { obsQuerySeconds.Observe(time.Since(start).Seconds()) }()
	if s.scanQuery.Load() {
		obsQueryPlannerRef.Inc()
		return s.selectScan(f, limit)
	}
	var qs queryStats
	// A per-run limit prune is sound: the global merge can never need more
	// than `limit` packets from any one run.
	results, _ := s.execute(&qs, func(tr *tier) []*tierSegment { return tr.pruneSegs(f) },
		func(r run, out *[]StoredPacket) (int, error) { return each(r, f, &qs, out, limit) })
	out := mergeSelect(results, limit)
	qs.flush(len(out), f.plan.indexable)
	return out
}

// selectScan is the serial full-scan reference implementation of Select —
// the behaviour the engine must reproduce byte-for-byte. It walks the
// filter's window but re-checks the whole predicate, ts conjuncts included.
func (s *Store) selectScan(f *Filter, limit int) []StoredPacket {
	var out []StoredPacket
	s.scanRange(f.plan.win, func(sp *StoredPacket) bool {
		if f.match(sp) {
			out = append(out, *sp)
			if limit > 0 && len(out) >= limit {
				return false
			}
		}
		return true
	})
	return out
}

// mergeSelect k-way merges per-run result runs into global (TS, ID)
// order, honouring the limit. Returns nil (not an empty slice) when
// nothing matched, matching the serial reference.
func mergeSelect(results [][]StoredPacket, limit int) []StoredPacket {
	total := 0
	for _, r := range results {
		total += len(r)
	}
	if total == 0 {
		return nil
	}
	if limit > 0 && total > limit {
		total = limit
	}
	out := make([]StoredPacket, 0, total)
	cur := newMergeCursor(results)
	for sp := cur.next(); sp != nil; sp = cur.next() {
		out = append(out, *sp)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Count returns the number of packets matching the filter: Select without
// materialisation. Order is irrelevant for counting, so the runs' partial
// sums add up; with no residual predicate a run's count is its
// posting-list intersection size and no packet is touched.
func (s *Store) Count(f *Filter) int {
	start := time.Now()
	defer func() { obsQuerySeconds.Observe(time.Since(start).Seconds()) }()
	if s.scanQuery.Load() {
		obsQueryPlannerRef.Inc()
		return s.countScan(f)
	}
	var qs queryStats
	_, n := s.execute(&qs, func(tr *tier) []*tierSegment { return tr.pruneSegs(f) },
		func(r run, _ *[]StoredPacket) (int, error) { return each(r, f, &qs, nil, 0) })
	qs.flush(n, f.plan.indexable)
	return n
}

// countScan is the serial full-scan reference implementation of Count.
// Routed through scanRange so it spans the cold tier like every other
// reference path (order is irrelevant for counting, but the shared walk
// keeps one cold-decode implementation).
func (s *Store) countScan(f *Filter) int {
	n := 0
	s.scanRange(tsWin{}, func(sp *StoredPacket) bool {
		if f.match(sp) {
			n++
		}
		return true
	})
	return n
}

// SelectExpr parses expr (through the compiled-filter cache) and runs
// Select.
func (s *Store) SelectExpr(expr string, limit int) ([]StoredPacket, error) {
	f, err := ParseFilterCached(expr)
	if err != nil {
		return nil, err
	}
	return s.Select(f, limit), nil
}

// CountExpr parses expr (through the compiled-filter cache) and runs
// Count.
func (s *Store) CountExpr(expr string) (int, error) {
	f, err := ParseFilterCached(expr)
	if err != nil {
		return 0, err
	}
	return s.Count(f), nil
}

// Scan streams every stored packet through visit in time order, stopping
// early if visit returns false. It holds the shard read locks for the
// duration; visitors must be fast and must not call back into the store.
func (s *Store) Scan(visit func(*StoredPacket) bool) {
	s.scanRange(tsWin{}, visit)
}

// LabelCounts tallies flows per ground-truth label — the class balance a
// dataset builder needs before training. Shards tally independently (in
// parallel); the merged map is order-independent.
func (s *Store) LabelCounts() map[traffic.Label]int {
	unlock := s.rlockAll()
	defer unlock()
	partial := make([]map[traffic.Label]int, len(s.shards))
	parallel.For(len(s.shards), int(s.queryWorkers.Load()), func(si int) {
		m := make(map[traffic.Label]int)
		for _, fm := range s.shards[si].flows {
			m[fm.Label]++
		}
		partial[si] = m
	})
	out := make(map[traffic.Label]int)
	for _, m := range partial {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}
