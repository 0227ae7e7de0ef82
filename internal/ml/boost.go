package ml

import (
	"fmt"
	"math"
	"math/rand"

	"campuslab/internal/features"
)

// BoostConfig controls AdaBoost (SAMME) training.
type BoostConfig struct {
	// Rounds is the number of weak learners (default 50).
	Rounds int
	// WeakDepth bounds each weak tree (default 2 — stumps-plus).
	WeakDepth int
	// Seed drives the weighted resampling.
	Seed int64
}

// Boost is an AdaBoost.SAMME ensemble of shallow trees — a second
// black-box family alongside the random forest, used to show that model
// extraction (internal/xai) is model-agnostic: the extracted tree mimics
// whatever taught it.
type Boost struct {
	trees   []*Tree
	alphas  []float64
	classes int
}

// FitBoost trains the ensemble. Sample weighting is implemented by
// weighted resampling, which keeps the weak learner unchanged.
func FitBoost(d *features.Dataset, classes int, cfg BoostConfig) (*Boost, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	if classes <= 0 {
		classes = maxLabel(d.Y) + 1
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 50
	}
	if cfg.WeakDepth <= 0 {
		cfg.WeakDepth = 2
	}
	if err := checkDataset(d, classes); err != nil {
		return nil, err
	}
	n := d.Len()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := &Boost{classes: classes}
	// One presort for the run; each round's resample is a multiplicity per
	// row over it (see builder).
	bld := newBuilder(newPresort(d), classes)
	mult := make([]int32, n)
	cum := make([]float64, n+1)

	for round := 0; round < cfg.Rounds; round++ {
		// Weighted bootstrap via inverse-CDF sampling.
		cum[0] = 0
		for i, wi := range w {
			cum[i+1] = cum[i] + wi
		}
		total := cum[n]
		clear(mult)
		for i := 0; i < n; i++ {
			u := rng.Float64() * total
			lo, hi := 0, n
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid+1] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			mult[lo]++
		}
		tree := bld.fit(mult, TreeConfig{MaxDepth: cfg.WeakDepth, Seed: rng.Int63()})
		// Weighted error on the ORIGINAL distribution.
		var errw float64
		for i := range d.X {
			if tree.Predict(d.X[i]) != d.Y[i] {
				errw += w[i]
			}
		}
		if errw >= 1-1/float64(classes) {
			continue // worse than chance: discard this round
		}
		if errw < 1e-10 {
			// Perfect learner: dominate the vote and stop.
			b.trees = append(b.trees, tree)
			b.alphas = append(b.alphas, 10)
			break
		}
		alpha := math.Log((1-errw)/errw) + math.Log(float64(classes)-1)
		b.trees = append(b.trees, tree)
		b.alphas = append(b.alphas, alpha)
		// Reweight: misclassified examples gain weight.
		var sum float64
		for i := range w {
			if b.trees[len(b.trees)-1].Predict(d.X[i]) != d.Y[i] {
				w[i] *= math.Exp(alpha)
			}
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	if len(b.trees) == 0 {
		return nil, fmt.Errorf("ml: boosting found no usable weak learner")
	}
	return b, nil
}

// Predict implements Classifier.
func (b *Boost) Predict(x []float64) int {
	best, _ := argmax(b.Proba(x))
	return best
}

// Proba implements Classifier: normalized alpha-weighted votes.
func (b *Boost) Proba(x []float64) []float64 {
	out := make([]float64, b.classes)
	var total float64
	for i, t := range b.trees {
		out[t.Predict(x)] += b.alphas[i]
		total += b.alphas[i]
	}
	if total > 0 {
		for c := range out {
			out[c] /= total
		}
	}
	return out
}

// NumClasses implements Classifier.
func (b *Boost) NumClasses() int { return b.classes }

// TotalNodes sums weak-learner node counts.
func (b *Boost) TotalNodes() int {
	n := 0
	for _, t := range b.trees {
		n += t.NumNodes()
	}
	return n
}
