package ml

import (
	"fmt"
	"math"
	"math/rand"

	"campuslab/internal/features"
	"campuslab/internal/obs"
	"campuslab/internal/parallel"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 50).
	Trees int
	// MaxDepth bounds each tree (<=0 unbounded).
	MaxDepth int
	// MinSamplesSplit per tree (default 2).
	MinSamplesSplit int
	// Seed drives bootstrap and feature sampling. The sampling stream is
	// drawn serially up front, so the fitted ensemble is identical at any
	// worker count (and to the historical serial implementation).
	Seed int64
	// Workers bounds training fan-out (0 = GOMAXPROCS, 1 = serial).
	Workers int
}

// Forest is a bagged random forest — the heavyweight offline "black-box"
// model of Figure 2: accurate, but with hundreds of trees and thousands of
// paths, not something an operator can audit or a switch can run.
type Forest struct {
	trees   []*Tree
	classes int
}

// FitForest trains the ensemble: bootstrap sample per tree, sqrt(d)
// feature subsampling at each split. The random sampling stream (bootstrap
// draws and per-tree seeds) is drawn serially from cfg.Seed before any
// fan-out, then trees train concurrently across cfg.Workers goroutines —
// so the ensemble is byte-for-byte identical at any worker count, and
// identical to what the serial implementation has always produced.
//
// The dataset is laid out in columns and sorted once for the whole forest;
// a tree's bootstrap is the number of times it drew each row, applied to
// that shared order, so no tree sorts anything and a worker reuses one
// builder's scratch for all its trees.
func FitForest(d *features.Dataset, classes int, cfg ForestConfig) (*Forest, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 50
	}
	if classes <= 0 {
		classes = maxLabel(d.Y) + 1
	}
	if err := checkDataset(d, classes); err != nil {
		return nil, err
	}
	maxFeat := int(math.Sqrt(float64(d.Dims())))
	if maxFeat < 1 {
		maxFeat = 1
	}
	defer obs.Default.StartSpan("train").End()
	n := d.Len()
	rng := rand.New(rand.NewSource(cfg.Seed))
	mults := make([]int32, cfg.Trees*n) // tree t drew row i mults[t*n+i] times
	seeds := make([]int64, cfg.Trees)
	for t := 0; t < cfg.Trees; t++ {
		mult := mults[t*n : (t+1)*n]
		for i := 0; i < n; i++ {
			mult[rng.Intn(n)]++
		}
		seeds[t] = rng.Int63()
	}
	ps := newPresort(d)
	f := &Forest{classes: classes, trees: make([]*Tree, cfg.Trees)}
	parallel.ForChunks(cfg.Trees, cfg.Workers, func(lo, hi int) {
		b := newBuilder(ps, classes)
		for t := lo; t < hi; t++ {
			f.trees[t] = b.fit(mults[t*n:(t+1)*n], TreeConfig{
				MaxDepth:        cfg.MaxDepth,
				MinSamplesSplit: cfg.MinSamplesSplit,
				MaxFeatures:     maxFeat,
				Seed:            seeds[t],
			})
		}
	})
	return f, nil
}

// maxStackClasses is the widest distribution Predict votes into without
// touching the heap.
const maxStackClasses = 16

// Predict implements Classifier (argmax of averaged probabilities). It
// stops voting once the remaining trees cannot change the answer.
func (f *Forest) Predict(x []float64) int {
	var stack [maxStackClasses]float64
	p := stack[:]
	if f.classes <= len(stack) {
		p = p[:f.classes]
	} else {
		p = make([]float64, f.classes)
	}
	if c, ok := f.vote(p, x, true); ok {
		return c
	}
	best, _ := argmax(p)
	return best
}

// Proba implements Classifier: the mean of member-tree probabilities.
func (f *Forest) Proba(x []float64) []float64 {
	out := make([]float64, f.classes)
	f.vote(out, x, false)
	return out
}

// vote accumulates every member's leaf distribution into the zeroed out,
// member by member in ensemble order, then averages. With early set it
// may stop first: once one class's partial sum leads every other by more
// than the trees still to vote plus voteMargin, it returns that class and
// true, leaving out partial.
//
// The early answer is exact. A fitted leaf's distribution is non-negative
// and sums to at most 1, so no tree moves a lead by more than 1, and the
// margin covers every rounding the full sum and its division could add:
// a class that leads by more than that when the vote stops leads, strictly,
// in the averaged vote argmax reads. A vote that ends tied never stops.
func (f *Forest) vote(out, x []float64, early bool) (int, bool) {
	nt := len(f.trees)
	margin := voteMargin(nt)
	for k, t := range f.trees {
		if n := t.leaf(x); n.total != 0 {
			for c, v := range n.counts {
				out[c] += v / n.total
			}
		}
		// A lead is at most the k+1 trees counted, so before half the
		// forest has voted no class can have settled it.
		if left := nt - k - 1; early && left > 0 && k+1 > left {
			if c, lead := leader(out); lead > float64(left)+margin {
				return c, true
			}
		}
	}
	n := float64(nt)
	for c := range out {
		out[c] /= n
	}
	return 0, false
}

// voteMargin bounds, with room to spare, how far rounding can move a lead
// over a vote of n trees: each of the n partial sums of a class is at most
// n, so each addition is off by at most n·2⁻⁵³, and the quotients by less.
func voteMargin(n int) float64 { return float64(n) * float64(n) * 0x1p-40 }

// leader returns the first class holding the largest partial sum and how
// far it is ahead of the best other class.
func leader(p []float64) (int, float64) {
	best, _ := argmax(p)
	second := math.Inf(-1)
	for c, v := range p {
		if c != best && v > second {
			second = v
		}
	}
	return best, p[best] - second
}

// NumClasses implements Classifier.
func (f *Forest) NumClasses() int { return f.classes }

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Tree returns member tree t (equivalence testing and inspection).
func (f *Forest) Tree(t int) *Tree { return f.trees[t] }

// TotalNodes sums member-tree node counts — a size measure for the
// black-box vs deployable-model comparison.
func (f *Forest) TotalNodes() int {
	n := 0
	for _, t := range f.trees {
		n += t.NumNodes()
	}
	return n
}
