package ml

import (
	"math"
	"math/bits"
	"slices"

	"campuslab/internal/parallel"
)

// PredictBatch classifies every row of X, fanning examples across workers
// (0 = GOMAXPROCS). Output is index-addressed, so predictions are
// identical to calling Predict row by row.
//
// Rows are answered through a memo keyed by code word (see forestCuts):
// equal words reach the same leaf in every tree, so only the first row
// with a given word votes. Each worker keeps its own memo for the length
// of the call; nothing outlives it, since a forest is usually refitted
// before it is asked again.
func (f *Forest) PredictBatch(X [][]float64, workers int) []int {
	out := make([]int, len(X))
	if len(X) == 0 {
		return out
	}
	cuts, ok := f.cuts()
	parallel.ForChunks(len(X), workers, func(lo, hi int) {
		if !ok {
			for i := lo; i < hi; i++ {
				out[i] = f.Predict(X[i])
			}
			return
		}
		var m wordMemo
		m.init(cuts, hi-lo)
		for i := lo; i < hi; i++ {
			out[i] = m.predict(f, X[i])
		}
	})
	return out
}

// forestCuts is the code-word schema of one forest: for every feature
// some split tests, its distinct split thresholds in ascending order. A
// row's code word is, per such feature, the number of thresholds below
// its value. A node sends x left iff x <= thr, that is iff thr is not
// below x, so two rows with equal words take the same branch at every
// node of every tree. A NaN goes right at every node and ranks above
// every threshold, with the values that go right at every node.
type forestCuts struct {
	feats  []int     // the features some node splits on, ascending
	bounds []int     // feats[i]'s thresholds are thr[bounds[i]:bounds[i+1]]
	thr    []float64 // each feature's distinct thresholds, ascending
}

// maxWordCuts is the most thresholds a feature may have for its rank to
// fit a word's uint16.
const maxWordCuts = math.MaxUint16

// cuts builds the forest's code-word schema. It reports false when a word
// could not hold it: a feature with more than maxWordCuts thresholds, or a
// class a word's entry cannot store.
func (f *Forest) cuts() (forestCuts, bool) {
	if f.classes > math.MaxUint16+1 {
		return forestCuts{}, false
	}
	// A NaN threshold sends every row right: it separates nothing.
	splits := func(n *treeNode) bool { return n.feature >= 0 && !math.IsNaN(n.threshold) }
	dims := 0
	for _, t := range f.trees {
		dims = max(dims, t.dims)
	}
	// One allocation for the per-feature ends, feats and bounds.
	ints := make([]int, 3*dims+2)
	end := ints[:dims+1]
	cs := forestCuts{feats: ints[dims+1 : dims+1 : 2*dims+1], bounds: ints[2*dims+1 : 2*dims+1]}
	for _, t := range f.trees {
		for i := range t.nodes {
			if n := &t.nodes[i]; splits(n) {
				end[n.feature+1]++
			}
		}
	}
	for ft := 1; ft <= dims; ft++ {
		end[ft] += end[ft-1]
	}
	// Filling feature ft's block moves end[ft] from its start to its end.
	cs.thr = make([]float64, end[dims])
	for _, t := range f.trees {
		for i := range t.nodes {
			if n := &t.nodes[i]; splits(n) {
				cs.thr[end[n.feature]] = n.threshold
				end[n.feature]++
			}
		}
	}
	lo, kept := 0, 0
	cs.bounds = append(cs.bounds, 0)
	for ft := 0; ft < dims; ft++ {
		block := cs.thr[lo:end[ft]]
		lo = end[ft]
		if len(block) == 0 {
			continue
		}
		slices.Sort(block)
		// Distinct under ==: -0 and +0 split alike.
		block = slices.CompactFunc(block, func(a, b float64) bool { return a == b })
		if len(block) > maxWordCuts {
			return forestCuts{}, false
		}
		kept += copy(cs.thr[kept:], block)
		cs.feats = append(cs.feats, ft)
		cs.bounds = append(cs.bounds, kept)
	}
	cs.thr = cs.thr[:kept]
	return cs, true
}

// word fills w with x's code word.
func (cs *forestCuts) word(w []uint16, x []float64) {
	for i, ft := range cs.feats {
		w[i] = uint16(rank(cs.thr[cs.bounds[i]:cs.bounds[i+1]], x[ft]))
	}
}

// linearRankCuts is the longest threshold list rank counts through rather
// than bisects: for a short list the count's predictable compares beat
// the search's unpredictable branches.
const linearRankCuts = 32

// rank is the number of thresholds in thr, ascending and distinct, below
// v. No threshold is below a NaN, yet it ranks past them all.
func rank(thr []float64, v float64) int {
	if v != v {
		return len(thr)
	}
	if len(thr) <= linearRankCuts {
		r := 0
		for _, t := range thr {
			if t < v {
				r++
			}
		}
		return r
	}
	// The first threshold not below v: its index is the count below.
	lo, hi := 0, len(thr)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if thr[h] < v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// wordMemo answers rows of one batch by code word: an open-addressed
// table, sized by the distinct words seen, over entries that each hold a
// word followed by its class. One goroutine uses it, for one call.
type wordMemo struct {
	cuts    forestCuts
	w       int      // word length
	shift   uint     // 64 - log2(len(slots)): a hash's top bits pick the slot
	slots   []int32  // 0 empty, else 1 + entry index
	entries []uint16 // entry e: word at [e*(w+1), e*(w+1)+w), class after it
}

// maxMemoSlots caps a fresh memo's table; a batch with fewer rows starts
// with room for them all.
const maxMemoSlots = 1 << 10

func (m *wordMemo) init(cs forestCuts, rows int) {
	m.cuts, m.w = cs, len(cs.feats)
	m.resize(min(maxMemoSlots, 1<<bits.Len(uint(2*rows))))
}

// wordHash mixes a code word; the table takes its top bits.
func wordHash(w []uint16) uint64 {
	h := uint64(len(w))
	for _, r := range w {
		h = (h ^ uint64(r)) * 0x9E3779B97F4A7C15
	}
	return h
}

// predict returns f's class for x: the class stored for x's code word, or
// else x's vote, stored under it. The word is built where its entry would
// go, so a miss stores it by appending the class.
func (m *wordMemo) predict(f *Forest, x []float64) int {
	stride, at := m.w+1, len(m.entries)
	word := m.entries[at : at+m.w]
	m.cuts.word(word, x)
	mask := len(m.slots) - 1
	i := int(wordHash(word) >> m.shift)
	for ; m.slots[i] != 0; i = (i + 1) & mask {
		e := int(m.slots[i]-1) * stride
		if slices.Equal(m.entries[e:e+m.w], word) {
			return int(m.entries[e+m.w])
		}
	}
	c := f.Predict(x)
	m.entries = m.entries[:at+stride]
	m.entries[at+m.w] = uint16(c)
	n := len(m.entries) / stride
	m.slots[i] = int32(n)
	if 2*n == len(m.slots) {
		m.resize(2 * len(m.slots))
	}
	return c
}

// resize gives the memo a table of the given number of slots, a power of
// two, with room for half as many entries, and re-inserts every entry.
// The table is never more than half full, so an entry always has room
// after the last for the next row's word.
func (m *wordMemo) resize(slots int) {
	stride := m.w + 1
	m.entries = append(make([]uint16, 0, slots/2*stride), m.entries...)
	m.slots = make([]int32, slots)
	m.shift = uint(64 - bits.Len(uint(slots-1)))
	for e := 0; e < len(m.entries)/stride; e++ {
		i := int(wordHash(m.entries[e*stride:e*stride+m.w]) >> m.shift)
		for m.slots[i] != 0 {
			i = (i + 1) & (slots - 1)
		}
		m.slots[i] = int32(e + 1)
	}
}
