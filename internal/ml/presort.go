package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"campuslab/internal/features"
)

// ErrBadDataset is wrapped by every error FitTree, FitForest and FitBoost
// return for a dataset they cannot learn from: a label outside
// [0, classes), a NaN feature value, or a row whose length is not Dims().
// ±Inf is legal — it orders.
var ErrBadDataset = errors.New("ml: bad dataset")

// checkDataset validates d once at fit entry, so induction never meets a
// value that would make it panic or depend on the order of the rows.
func checkDataset(d *features.Dataset, classes int) error {
	if len(d.Y) != len(d.X) {
		return fmt.Errorf("%w: %d rows, %d labels", ErrBadDataset, len(d.X), len(d.Y))
	}
	dims := d.Dims()
	for i, row := range d.X {
		if len(row) != dims {
			return fmt.Errorf("%w: row %d has %d values, schema has %d", ErrBadDataset, i, len(row), dims)
		}
		if y := d.Y[i]; y < 0 || y >= classes {
			return fmt.Errorf("%w: row %d has label %d, want [0,%d)", ErrBadDataset, i, y, classes)
		}
		for j, v := range row {
			if math.IsNaN(v) {
				return fmt.Errorf("%w: row %d column %d is NaN", ErrBadDataset, i, j)
			}
		}
	}
	return nil
}

// presort is a dataset laid out for induction: one contiguous column per
// feature and, per feature, the rows argsorted by that column. It is built
// once per fit and only read afterwards, so one presort serves every tree
// of a forest or boosting run, from any number of goroutines.
type presort struct {
	n, dims int
	cols    []float64 // column-major: feature f is cols[f*n : (f+1)*n]
	order   []int32   // order[f*n : (f+1)*n] = rows ascending by feature f
	y       []int     // d.Y, not copied
}

func newPresort(d *features.Dataset) *presort {
	n, dims := d.Len(), d.Dims()
	ps := &presort{
		n: n, dims: dims, y: d.Y,
		cols:  make([]float64, n*dims),
		order: make([]int32, n*dims),
	}
	for i, row := range d.X {
		for f, v := range row {
			ps.cols[f*n+i] = v
		}
	}
	keys, spare := make([]uint64, n), make([]uint64, n)
	for f := 0; f < dims; f++ {
		col := ps.col(f)
		lowOr, lowAnd := uint32(0), ^uint32(0)
		for i, v := range col {
			k := sortKey(v)
			lowOr, lowAnd = lowOr|uint32(k), lowAnd&uint32(k)
			keys[i] = k&^(1<<32-1) | uint64(i)
		}
		sorted, free := radixSort(keys, spare)
		ord := ps.order[f*n : (f+1)*n]
		for i, k := range sorted {
			ord[i] = int32(uint32(k))
		}
		if lowOr != lowAnd { // else a run's keys are equal: in row order already
			finishRuns(ord, sorted, col, free)
		}
	}
	return ps
}

// sortKey maps a float to an integer that orders the same way: flip every
// bit of a negative, only the sign bit of the rest.
func sortKey(v float64) uint64 {
	k := math.Float64bits(v)
	if k>>63 != 0 {
		return ^k
	}
	return k | 1<<63
}

// radixSort sorts keys — a sort key's top 32 bits above a row number —
// ascending by those top 32 bits, least significant digit first, in three
// passes of 11 bits, using spare (same length) as the other buffer. It
// returns whichever of the two holds the result, then the other. Each
// pass is stable and keys arrive in row order, so rows whose top bits are
// equal stay in row order; a digit on which all keys agree costs no pass,
// which is most of them for boolean and small-integer columns.
func radixSort(keys, spare []uint64) (sorted, free []uint64) {
	const bits, passes, base = 11, 3, 32
	const mask = 1<<bits - 1
	var hist [passes][1 << bits]int32
	for _, k := range keys {
		for d := range hist {
			hist[d][k>>(base+bits*d)&mask]++
		}
	}
	for d := range hist {
		h, shift := &hist[d], base+bits*d
		if h[keys[0]>>shift&mask] == int32(len(keys)) {
			continue
		}
		var sum int32
		for i, c := range h {
			h[i], sum = sum, sum+c
		}
		for _, k := range keys {
			b := k >> shift & mask
			spare[h[b]] = k
			h[b]++
		}
		keys, spare = spare, keys
	}
	return keys, spare
}

// finishRuns completes the order radixSort left by the top 32 bits of the
// key: each run of rows sharing them, in row order, is put in order by the
// whole key, ties kept in row order. sorted is radixSort's result, whose
// row numbers ord holds; a run already in order is left alone. A column
// whose keys all share their low 32 bits — integers, ports, booleans —
// never gets here. scratch, as long as sorted, holds a run being sorted.
func finishRuns(ord []int32, sorted []uint64, col []float64, scratch []uint64) {
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi]>>32 == sorted[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			// The run's low key bits above each row: in order by that
			// word is in order by the key, ties by row.
			run := scratch[:0]
			inOrder := true
			for _, r := range ord[lo:hi] {
				w := sortKey(col[r])<<32 | uint64(r)
				inOrder = inOrder && (len(run) == 0 || run[len(run)-1] < w)
				run = append(run, w)
			}
			if !inOrder {
				slices.Sort(run)
				for i, w := range run {
					ord[lo+i] = int32(uint32(w))
				}
			}
		}
		lo = hi
	}
}

func (ps *presort) col(f int) []float64 { return ps.cols[f*ps.n : (f+1)*ps.n] }

// builder grows trees over one presort. Its scratch is sized once and
// reused by every fit, so a forest worker or a boosting run allocates per
// tree only what the tree keeps (nodes and their histograms).
//
// A tree's sample is a multiplicity per row of the presorted dataset — 1
// everywhere for a plain fit, the bootstrap count for a bagged tree, 0 for
// a row the sample left out. Every node owns the same range [lo, hi) in
// each feature's index list, holding the node's rows in that feature's
// order; splitting a node partitions every list stably, so a child's lists
// are sorted without sorting.
type builder struct {
	ps      *presort
	classes int
	cfg     TreeConfig
	rng     *rand.Rand // feature subsampling; reseeded per fit

	w      []float64 // per-row multiplicity
	idx    []int32   // dims lists of n; list f's live prefix is the sample in f's order
	spill  []int32   // right-hand rows during a stable partition
	goLeft []uint8   // per row, 1 or 0, set for the rows of the node being split
	feats  []int     // candidate features of the node being split
	left   []float64 // sweep histograms
	right  []float64

	tree *Tree
	slab []float64 // node histograms are cut from here
}

func newBuilder(ps *presort, classes int) *builder {
	return &builder{
		ps: ps, classes: classes,
		rng:    rand.New(rand.NewSource(0)),
		w:      make([]float64, ps.n),
		idx:    make([]int32, ps.n*ps.dims),
		spill:  make([]int32, ps.n),
		goLeft: make([]uint8, ps.n),
		feats:  make([]int, ps.dims),
		left:   make([]float64, classes),
		right:  make([]float64, classes),
	}
}

// fit induces one tree over the sample that holds row i mult[i] times.
func (b *builder) fit(mult []int32, cfg TreeConfig) *Tree {
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	ps := b.ps
	b.cfg = cfg
	b.rng.Seed(cfg.Seed)
	b.tree = &Tree{classes: b.classes, dims: ps.dims, cfg: cfg}
	b.slab = nil

	// Keep, of each feature's order, the rows the sample holds. goLeft is
	// free until the first node is split: it flags those rows meanwhile.
	counts := b.newCounts()
	var total float64
	m := 0
	for i, c := range mult {
		w := float64(c)
		b.w[i] = w
		counts[ps.y[i]] += w
		total += w
		b.goLeft[i] = uint8(min(c, 1))
		m += int(b.goLeft[i])
	}
	if m == ps.n { // every row is in the sample: the lists are the order
		copy(b.idx, ps.order)
	} else {
		for f := 0; f < ps.dims; f++ {
			list, k := b.idx[f*ps.n:(f+1)*ps.n], 0
			for _, r := range ps.order[f*ps.n : (f+1)*ps.n] {
				list[k] = r
				k += int(b.goLeft[r])
			}
		}
	}
	b.build(0, m, 0, counts, total)
	return b.tree
}

// newCounts cuts one zeroed class histogram from the slab.
func (b *builder) newCounts() []float64 {
	if len(b.slab) < b.classes {
		b.slab = make([]float64, 32*b.classes)
	}
	c := b.slab[:b.classes:b.classes]
	b.slab = b.slab[b.classes:]
	return c
}

// splittable reports whether a node with this histogram at this depth
// goes on to search for a split.
func (b *builder) splittable(counts []float64, total float64, depth int) bool {
	return total >= float64(b.cfg.MinSamplesSplit) && gini(counts, total) != 0 &&
		!(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth)
}

// build grows the subtree over the rows in [lo, hi) of every index list,
// returning its node index. Nodes are numbered in preorder.
func (b *builder) build(lo, hi, depth int, counts []float64, total float64) int {
	t := b.tree
	nodeIdx := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: -1, counts: counts, total: total})
	if !b.splittable(counts, total, depth) {
		return nodeIdx
	}
	feat, thr, ok := b.bestSplit(lo, hi, counts, total)
	if !ok {
		return nodeIdx
	}
	// Route rows by comparing against the threshold, not by sweep position:
	// (xv+xn)/2 can round onto xn, overflow to +Inf or be NaN for ±Inf.
	ps := b.ps
	n := ps.n
	col := ps.col(feat)
	lc, rc := b.newCounts(), b.newCounts()
	var lt, rt float64
	nLeft := 0
	for _, r := range b.idx[feat*n+lo : feat*n+hi] {
		w := b.w[r]
		if col[r] <= thr {
			b.goLeft[r] = 1
			lc[ps.y[r]] += w
			lt += w
			nLeft++
		} else {
			b.goLeft[r] = 0
			rc[ps.y[r]] += w
			rt += w
		}
	}
	if nLeft == 0 || nLeft == hi-lo {
		return nodeIdx
	}
	mid := lo + nLeft
	// A child that will not search for a split never reads its lists.
	if b.splittable(lc, lt, depth+1) || b.splittable(rc, rt, depth+1) {
		for f := 0; f < ps.dims; f++ {
			if f == feat {
				continue // sorted by feat: the left rows already are its prefix
			}
			// Branch-free: which side a row takes is a coin flip in any
			// order but feat's. Write it to both, advance one cursor.
			list := b.idx[f*n+lo : f*n+hi]
			i, j := 0, 0
			for _, r := range list {
				g := int(b.goLeft[r])
				list[i] = r
				b.spill[j] = r
				i += g
				j += 1 - g
			}
			copy(list[i:], b.spill[:j])
		}
	}
	l := b.build(lo, mid, depth+1, lc, lt)
	r := b.build(mid, hi, depth+1, rc, rt)
	t.nodes[nodeIdx].feature = feat
	t.nodes[nodeIdx].threshold = thr
	t.nodes[nodeIdx].left = l
	t.nodes[nodeIdx].right = r
	return nodeIdx
}

// bestSplit scans the node's candidate features for the split minimizing
// weighted child impurity: one linear sweep per feature over its presorted
// list. A score is evaluated only between two distinct values, where the
// left and right histograms are sums over whole groups of equal values —
// so how equal values were ordered cannot change any score.
func (b *builder) bestSplit(lo, hi int, parentCounts []float64, n float64) (feat int, thr float64, ok bool) {
	ps := b.ps
	feats := b.feats
	for i := range feats {
		feats[i] = i
	}
	if b.cfg.MaxFeatures > 0 && b.cfg.MaxFeatures < ps.dims {
		b.rng.Shuffle(len(feats), func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:b.cfg.MaxFeatures]
		slices.Sort(feats)
	}
	best := gini(parentCounts, n)
	bestFeat, bestThr := -1, 0.0
	left, right := b.left, b.right

	for _, f := range feats {
		col := ps.col(f)
		list := b.idx[f*ps.n+lo : f*ps.n+hi]
		xv := col[list[0]]
		if xv == col[list[len(list)-1]] {
			continue // constant over this node
		}
		clear(left)
		copy(right, parentCounts)
		var nl float64
		for k := 0; k < len(list)-1; k++ {
			r := list[k]
			w, y := b.w[r], ps.y[r]
			left[y] += w
			right[y] -= w
			nl += w
			xn := col[list[k+1]]
			if xv == xn {
				continue
			}
			nr := n - nl
			score := (nl*gini(left, nl) + nr*gini(right, nr)) / n
			if score < best-1e-12 {
				best = score
				bestFeat = f
				bestThr = (xv + xn) / 2
			}
			xv = xn
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThr, true
}
