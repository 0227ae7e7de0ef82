package datastore

import (
	"math"
	"sort"
	"time"
)

// The query planner, following the dataplane's compile-don't-interpret
// playbook: ParseFilter walks the expression AST once, pulls out the
// conjuncts that are exactly answerable from posting lists, folds the
// top-level ts comparisons into one exact time window, and compiles
// everything else into a single residual predicate. At query time each
// shard (and each cold segment) binary-searches the window on its
// (TS, ID)-sorted run, intersects the candidate posting lists clipped to
// it, and evaluates only the residual on the candidates; shards where the
// index would not prune enough fall back to the linear scan. Both paths
// produce identical results — the SetScanQuery knob forces the serial scan
// as the equivalence reference, mirroring the dataplane's setScanOnly.

// tsWin is a half-open timestamp interval [from, to) in nanoseconds. A
// bound exists only when its flag is set: timestamps can be negative (the
// grammar accepts `ts < -5s`, Store.lastTS starts at -2^62), so no value
// can double as "unbounded".
type tsWin struct {
	from, to       time.Duration
	hasFrom, hasTo bool
}

func (w *tsWin) clipFrom(v time.Duration) {
	if !w.hasFrom || v > w.from {
		w.from, w.hasFrom = v, true
	}
}

func (w *tsWin) clipTo(v time.Duration) {
	if !w.hasTo || v < w.to {
		w.to, w.hasTo = v, true
	}
}

// absorb intersects the window with one `ts op v` conjunct and reports
// whether the window now states it exactly. `!=` is not an interval, and
// an inclusive bound at MaxInt64 has no exclusive successor: those stay
// in the residual (any part that does fit still narrows the window, which
// is sound — a window may only ever drop rows the predicate rejects).
func (w *tsWin) absorb(op string, v time.Duration) bool {
	const last = time.Duration(math.MaxInt64)
	switch op {
	case ">=":
		w.clipFrom(v)
	case ">":
		if v == last {
			return false
		}
		w.clipFrom(v + 1)
	case "<":
		w.clipTo(v)
	case "<=":
		if v == last {
			return false
		}
		w.clipTo(v + 1)
	case "==":
		w.clipFrom(v)
		if v == last {
			return false
		}
		w.clipTo(v + 1)
	default:
		return false
	}
	return true
}

// span returns the position interval [lo, hi) of a non-decreasing
// timestamp sequence of length n that falls inside the window; an empty
// window yields lo == hi.
func (w tsWin) span(n int, ts func(int) time.Duration) (lo, hi int) {
	hi = n
	if w.hasTo {
		hi = sort.Search(n, func(i int) bool { return ts(i) >= w.to })
	}
	if w.hasFrom {
		lo = sort.Search(hi, func(i int) bool { return ts(i) >= w.from })
	}
	return lo, hi
}

// queryPlan is what the planner derives from one filter expression. It is
// store-independent and immutable, so it is computed once at parse time
// and shared by every query using the filter.
type queryPlan struct {
	// indexable is true when at least one top-level AND-conjunct maps to
	// a posting list. OR/NOT at the top level, or expressions made only
	// of range/inequality leaves, plan as a full scan.
	indexable bool
	// keys are the posting lists to intersect per shard.
	keys []ixRef
	// win is the intersection of every top-level ts conjunct, enforced by
	// binary search on the (TS, ID)-sorted runs. It is exact, so the ts
	// conjuncts it states are the window, not the residual. Set for every
	// plan, indexable or not.
	win tsWin
	// residual is the conjunction of the conjuncts neither a posting list
	// nor the window states exactly. nil means candidates inside the
	// window need no re-check.
	residual predicate
}

// selectivityFactor: a shard takes the index path only when its smallest
// posting list is under 1/selectivityFactor of the scan window — past
// that, sequential slab traversal beats candidate lookups.
const selectivityFactor = 4

// indexMinWindow: scan windows smaller than this are cheaper to walk than
// to plan over.
const indexMinWindow = 32

// buildPlan derives the query plan from a parsed expression tree.
func buildPlan(root *node) queryPlan {
	var conjuncts []*node
	collectConjuncts(root, &conjuncts)
	var p queryPlan
	var resid []predicate
	for _, c := range conjuncts {
		switch {
		case c.key.kind != ixNone:
			// exact: posting membership ⇔ conjunct truth
			p.keys = append(p.keys, c.key)
		case c.tsOp != "" && p.win.absorb(c.tsOp, c.tsVal):
			// exact: inside the window ⇔ conjunct truth
		default:
			resid = append(resid, c.pred)
		}
	}
	if len(p.keys) == 0 {
		return queryPlan{win: p.win}
	}
	p.indexable = true
	switch len(resid) {
	case 0:
		p.residual = nil
	case 1:
		p.residual = resid[0]
	default:
		p.residual = func(sp *StoredPacket) bool {
			for _, pr := range resid {
				if !pr(sp) {
					return false
				}
			}
			return true
		}
	}
	return p
}

// collectConjuncts flattens the top-level AND chain. Anything that is not
// an AND node (OR, NOT, a lone leaf) is one opaque conjunct.
func collectConjuncts(n *node, out *[]*node) {
	if n.kind == "and" {
		for _, k := range n.kids {
			collectConjuncts(k, out)
		}
		return
	}
	*out = append(*out, n)
}

// indexCandidates is the index path every run shares: clip each of the
// plan's posting lists to [lo, hi), pick the shortest, and intersect
// shortest-first. ok=false means the run should walk its window instead:
// the plan has no index keys, or the shortest list is longer than maxLen —
// how a run says that walking beats candidate lookups. An empty shortest
// list is ok with no candidates: provably empty, exact, and maximally
// selective. The result may be a view into the index lookup reads (see
// intersect).
func indexCandidates[T ~uint32 | ~uint64](plan *queryPlan, lookup func(ixRef) []T, lo, hi T, maxLen int) (cand []T, ok bool) {
	if !plan.indexable {
		return nil, false
	}
	lists := make([][]T, 0, 4) // constant capacity: the usual few keys stay on the stack
	shortest := 0
	for i, key := range plan.keys {
		lists = append(lists, clip(lookup(key), lo, hi))
		if len(lists[i]) < len(lists[shortest]) {
			shortest = i
		}
	}
	if len(lists[shortest]) == 0 {
		return nil, true
	}
	if len(lists[shortest]) > maxLen {
		return nil, false
	}
	lists[0], lists[shortest] = lists[shortest], lists[0]
	return intersect(lists), true
}
