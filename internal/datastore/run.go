package datastore

import (
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"campuslab/internal/parallel"
)

// run is a (TS, ID)-sorted row source addressed by position: what a query
// walks. It has two implementations — a hot shard (slab + postings) and a
// cold segment cursor (directory + block cache) — and Select, Count and
// Packet reach rows only through it, so a new row source or evaluation
// strategy is one method here, not an edit per tier and answer shape.
//
// A run is read under the lock that keeps it still — the shard read lock,
// or the tier read lock for a cursor — which Store.execute holds for as
// long as a candidates view or an at pointer is in use.
type run interface {
	// span returns the position interval [lo, hi) holding exactly the rows
	// with TS inside w.
	span(w tsWin) (lo, hi int)
	// candidates returns, ascending, the positions in [lo, hi) that satisfy
	// every index key of the plan. ok=false declines: the plan has no keys,
	// or this run judges walking [lo, hi) cheaper. The list may be a view
	// into the run's index: read-only, dead once the run's lock is dropped.
	candidates(p *queryPlan, lo, hi int) (rows []uint32, ok bool)
	// at materialises the row at pos for a predicate: every field but Data,
	// which a cold run leaves nil (its summary comes from a column, not a
	// parse of the frame). The pointer is good until the next at on the
	// same run; copy the packet to keep it.
	at(pos int) (*StoredPacket, error)
	// frame fills in the frame bytes of the row at pos into sp, the packet
	// at(pos) returned: only a row that is returned pays for its frame.
	frame(pos int, sp *StoredPacket) error
	// find returns the position of the row with the given ID.
	find(id PacketID) (pos int, ok bool)
}

func (sh *shard) span(w tsWin) (lo, hi int) {
	return w.span(len(sh.packets), func(i int) time.Duration { return sh.packets[i].TS })
}

// candidates intersects the shard's posting lists clipped to the window's
// ID interval — within a shard the slab ascends in ID as well as TS, so a
// position interval is an ID interval — and maps the surviving IDs back to
// slab positions with a monotone search. A shard declines when the window
// is too small to plan over or its shortest list would not prune enough:
// its alternative, a sequential slab walk, is cheap.
func (sh *shard) candidates(p *queryPlan, lo, hi int) ([]uint32, bool) {
	if hi-lo < indexMinWindow {
		return nil, false
	}
	slab := sh.packets
	ids, ok := indexCandidates(p, sh.index.lookup, slab[lo].ID, slab[hi-1].ID+1, (hi-lo)/selectivityFactor)
	if len(ids) == 0 {
		return nil, ok
	}
	rows := make([]uint32, len(ids))
	pos := lo
	for i, id := range ids {
		pos += sort.Search(hi-pos, func(k int) bool { return slab[pos+k].ID >= id })
		rows[i] = uint32(pos)
		pos++
	}
	return rows, true
}

func (sh *shard) at(pos int) (*StoredPacket, error) { return &sh.packets[pos], nil }

// frame has nothing to add: a slab row holds its frame.
func (sh *shard) frame(int, *StoredPacket) error { return nil }

func (sh *shard) find(id PacketID) (int, bool) {
	i := sort.Search(len(sh.packets), func(i int) bool { return sh.packets[i].ID >= id })
	return i, i < len(sh.packets) && sh.packets[i].ID == id
}

// each walks, in order, the rows of r that satisfy f — the plan's
// candidates inside its window re-checked by the residual, or every row of
// the window against the whole predicate when the run declines the index —
// appending a copy of each match, frame and all, to *out until limit (0 =
// none) are there. With a nil out it only counts — the residual reads
// rows without their frames — and with nothing to re-check either the
// count is the candidate count and no row is materialised. Returns the
// number of matches.
func each(r run, f *Filter, qs *queryStats, out *[]StoredPacket, limit int) (int, error) {
	lo, hi := r.span(f.plan.win)
	if lo >= hi {
		return 0, nil
	}
	rows, indexed := r.candidates(&f.plan, lo, hi)
	n, pred := hi-lo, f.pred
	if indexed {
		qs.indexRuns.Add(1)
		n, pred = len(rows), f.plan.residual
	}
	qs.rowsScanned.Add(uint64(n))
	if pred == nil && out == nil {
		return n, nil
	}
	if pred == nil && n > 0 {
		// Nothing to re-check: every candidate up to limit is returned,
		// so the result is sized once instead of grown row by row.
		want := n
		if limit > 0 {
			want = min(n, limit)
		}
		*out = slices.Grow(*out, want)
	}
	matched := 0
	for i := 0; i < n; i++ {
		pos := lo + i
		if indexed {
			pos = int(rows[i])
		}
		sp, err := r.at(pos)
		if err != nil {
			return matched, err
		}
		if pred != nil && !pred(sp) {
			continue
		}
		matched++
		if out != nil {
			if err := r.frame(pos, sp); err != nil {
				return matched, err
			}
			*out = append(*out, *sp)
			if matched == limit {
				break
			}
		}
	}
	return matched, nil
}

// execute runs visit over every run a query can touch — the cold segments
// segsOf picks, each through its own cursor, then every hot shard — across
// the query workers. It returns what the runs appended to the slot each is
// handed (one per run, left nil by a visit that only counts) and the sum of
// what they returned. The tier read lock is taken before the shard locks
// (the global lock order) and held across both halves, so no seal can move
// a row between tiers mid-query. A run whose visit fails contributes
// nothing, neither rows nor count; a cold one is noted on TierStats
// (forSegs), once.
func (s *Store) execute(qs *queryStats, segsOf func(*tier) []*tierSegment,
	visit func(r run, out *[]StoredPacket) (int, error)) ([][]StoredPacket, int) {
	var segs []*tierSegment
	tr := s.tier.Load()
	if tr != nil {
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		segs = segsOf(tr)
	}
	rows := make([][]StoredPacket, len(segs)+len(s.shards))
	var total atomic.Int64
	one := func(i int, r run) error {
		n, err := visit(r, &rows[i])
		if err != nil {
			rows[i] = nil
			return err
		}
		total.Add(int64(n))
		return nil
	}
	s.forSegs(tr, segs, qs, func(i int, cur *segCursor) error { return one(i, cur) })
	unlock := s.rlockAll()
	parallel.For(len(s.shards), int(s.queryWorkers.Load()), func(si int) {
		_ = one(len(segs)+si, s.shards[si]) // a shard's at never fails
	})
	unlock()
	return rows, int(total.Load())
}
