package dataplane

import (
	"encoding/binary"
	"math"
)

// The per-packet fast path does not scan Program.Rules. Load compiles the
// rule list — disjoint conjunctions of per-field intervals, the shape a
// distilled decision tree produces — back into a decision DAG: each node
// splits one field's domain into the elementary intervals induced by the
// candidate rules' bounds and jumps straight to the child for the
// interval holding the packet's value. Evaluation is O(depth) binary
// searches instead of O(rules × conds) comparisons, and the structure is
// immutable after compilation so readers never synchronize.
//
// The builder is exact for arbitrary (even overlapping) rule lists under
// first-match-wins semantics: a cell is turned into a leaf only when its
// first intersecting rule covers the whole cell, so every packet in the
// cell provably matches that rule first.

// maxDAGNodes caps compilation; programs exceeding it (pathological
// overlap, not tree-distilled rules) fall back to the linear-scan
// reference path. A var so tests can exercise the fallback.
var maxDAGNodes = 1 << 16

// compiledProgram is the immutable decision-DAG form of a Program.
type compiledProgram struct {
	nodes []dagNode
	// Flat edge arrays: node i owns bounds[first:first+n] (ascending,
	// inclusive upper ends of its intervals; the last equals the node's
	// cell upper bound so the search always lands) and the parallel
	// next[first:first+n] targets (>= 0: node index; < 0: ^leaf index).
	bounds []uint32
	next   []int32
	// leaves hold the precomputed verdicts: one per rule, then the
	// default at index len(Rules).
	leaves []Verdict
	root   int32 // node index, or negative ^leaf for rule-free programs
}

// eval walks the DAG for one field vector. It never allocates.
func (c *compiledProgram) eval(fv *fieldVector) Verdict {
	t := c.root
	for t >= 0 {
		n := &c.nodes[t]
		v := fv.vals[n.field]
		first := n.first
		// Binary search for the first interval bound >= v.
		lo, hi := uint32(0), n.n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if v <= c.bounds[first+mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		t = c.next[first+lo]
	}
	return c.leaves[^t]
}

// dagNode is one interval-jump split on a single field.
type dagNode struct {
	field Field
	first uint32
	n     uint32
}

// dagBuilder carries compilation state.
type dagBuilder struct {
	prog *Program
	c    *compiledProgram
	memo map[string]int32
	ok   bool
}

// compileDAG lowers p into a decision DAG, or nil when p exceeds the node
// budget (callers then keep the scan path).
func compileDAG(p *Program) *compiledProgram {
	c := &compiledProgram{leaves: make([]Verdict, 0, len(p.Rules)+1)}
	for i := range p.Rules {
		r := &p.Rules[i]
		c.leaves = append(c.leaves, Verdict{
			Action: r.Action, Class: r.Class, Confidence: r.Confidence, RuleIndex: i,
		})
	}
	c.leaves = append(c.leaves, Verdict{Action: p.Default, RuleIndex: -1})

	b := &dagBuilder{prog: p, c: c, memo: make(map[string]int32), ok: true}
	// The cell domain is the full uint32 space, not Field.maxValue():
	// hand-built field vectors can carry out-of-width values and the DAG
	// must agree with the scan path on them too.
	var cell cellBounds
	for f := range cell.hi {
		cell.hi[f] = math.MaxUint32
	}
	cands := make([]int, len(p.Rules))
	for i := range cands {
		cands[i] = i
	}
	root := b.build(cands, &cell)
	if !b.ok {
		return nil
	}
	c.root = root
	return c
}

// cellBounds is the sub-hyperrectangle of field space a builder node
// covers: lo[f] <= value(f) <= hi[f].
type cellBounds struct {
	lo, hi [numFields]uint32
}

// relation classifies rule r against the cell: disjoint (cannot match any
// packet in the cell), covering (matches every packet in the cell), or
// partial.
const (
	relDisjoint = iota
	relCovers
	relPartial
)

func (b *dagBuilder) relation(ri int, cell *cellBounds) int {
	rel := relCovers
	for _, c := range b.prog.Rules[ri].Conds {
		f := c.Field
		if c.Lo > cell.hi[f] || c.Hi < cell.lo[f] {
			return relDisjoint
		}
		if c.Lo > cell.lo[f] || c.Hi < cell.hi[f] {
			rel = relPartial
		}
	}
	return rel
}

// build returns the DAG entry (node index or ^leaf) deciding the cell for
// the candidate rules (program order, already known to be the only rules
// that can intersect the cell).
func (b *dagBuilder) build(cands []int, cell *cellBounds) int32 {
	if !b.ok {
		return 0
	}
	// Prune to intersecting rules; the first covering rule wins the whole
	// cell, shadowing everything after it.
	live := make([]int, 0, len(cands))
	for _, ri := range cands {
		switch b.relation(ri, cell) {
		case relDisjoint:
		case relCovers:
			if len(live) == 0 {
				return ^int32(ri)
			}
			live = append(live, ri)
			goto pruned
		default:
			live = append(live, ri)
		}
	}
pruned:
	if len(live) == 0 {
		return ^int32(len(b.prog.Rules)) // default leaf
	}

	key := b.memoKey(live, cell)
	if idx, hit := b.memo[key]; hit {
		return idx
	}

	field, cuts := b.splitField(live, cell)
	// Elementary intervals: [cell.lo, cuts[0]-1], [cuts[0], cuts[1]-1],
	// ..., [cuts[k-1], cell.hi].
	nEdges := len(cuts) + 1
	edgeBounds := make([]uint32, nEdges)
	edgeNext := make([]int32, nEdges)
	childCell := *cell
	lo := cell.lo[field]
	for i := 0; i < nEdges; i++ {
		hi := cell.hi[field]
		if i < len(cuts) {
			hi = cuts[i] - 1
		}
		childCell.lo[field], childCell.hi[field] = lo, hi
		edgeBounds[i] = hi
		edgeNext[i] = b.build(live, &childCell)
		if !b.ok {
			return 0
		}
		lo = hi + 1
	}
	// Merge adjacent intervals that reached the same target.
	w := 1
	for i := 1; i < nEdges; i++ {
		if edgeNext[i] == edgeNext[w-1] {
			edgeBounds[w-1] = edgeBounds[i]
			continue
		}
		edgeBounds[w], edgeNext[w] = edgeBounds[i], edgeNext[i]
		w++
	}
	if w == 1 {
		b.memo[key] = edgeNext[0]
		return edgeNext[0]
	}
	if len(b.c.nodes) >= maxDAGNodes {
		b.ok = false
		return 0
	}
	idx := int32(len(b.c.nodes))
	b.c.nodes = append(b.c.nodes, dagNode{
		field: field, first: uint32(len(b.c.bounds)), n: uint32(w),
	})
	b.c.bounds = append(b.c.bounds, edgeBounds[:w]...)
	b.c.next = append(b.c.next, edgeNext[:w]...)
	b.memo[key] = idx
	return idx
}

// splitField picks the field with the most elementary cut points inside
// the cell (consolidating many rules into one multi-way node) and returns
// its sorted, deduplicated interior cuts. At least one cut exists because
// some live rule is partial over the cell.
func (b *dagBuilder) splitField(live []int, cell *cellBounds) (Field, []uint32) {
	var best Field
	var bestCuts []uint32
	for f := Field(0); f < numFields; f++ {
		var cuts []uint32
		for _, ri := range live {
			for _, c := range b.prog.Rules[ri].Conds {
				if c.Field != f {
					continue
				}
				if c.Lo > cell.lo[f] && c.Lo <= cell.hi[f] {
					cuts = append(cuts, c.Lo)
				}
				if c.Hi < cell.hi[f] && c.Hi >= cell.lo[f] && c.Hi < math.MaxUint32 {
					cuts = append(cuts, c.Hi+1)
				}
			}
		}
		cuts = sortedUnique(cuts)
		if len(cuts) > len(bestCuts) {
			best, bestCuts = f, cuts
		}
	}
	return best, bestCuts
}

func sortedUnique(v []uint32) []uint32 {
	if len(v) < 2 {
		return v
	}
	// Insertion sort: cut lists are tiny (≤ 2×rules).
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	w := 1
	for i := 1; i < len(v); i++ {
		if v[i] != v[w-1] {
			v[w] = v[i]
			w++
		}
	}
	return v[:w]
}

// memoKey identifies a subproblem: the candidate set plus the cell bounds
// of the fields those candidates still constrain. Structurally identical
// subproblems share one DAG node.
func (b *dagBuilder) memoKey(live []int, cell *cellBounds) string {
	var used [numFields]bool
	for _, ri := range live {
		for _, c := range b.prog.Rules[ri].Conds {
			used[c.Field] = true
		}
	}
	buf := make([]byte, 0, 4*len(live)+8*int(numFields))
	var tmp [4]byte
	for _, ri := range live {
		binary.LittleEndian.PutUint32(tmp[:], uint32(ri))
		buf = append(buf, tmp[:]...)
	}
	for f := 0; f < int(numFields); f++ {
		if !used[f] {
			continue
		}
		buf = append(buf, byte(f))
		binary.LittleEndian.PutUint32(tmp[:], cell.lo[f])
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint32(tmp[:], cell.hi[f])
		buf = append(buf, tmp[:]...)
	}
	return string(buf)
}
