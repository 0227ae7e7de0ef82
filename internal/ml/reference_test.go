package ml

// The sort-and-sweep CART, bagging and boosting loops, and the per-tree
// allocating forest vote exactly as they stood before the presorted
// builder replaced them. They are the oracle of equivalence_test.go: the
// production code must reproduce their models byte for byte.

import (
	"math"
	"math/rand"
	"sort"

	"campuslab/internal/features"
)

func refFitTree(d *features.Dataset, classes int, cfg TreeConfig) *Tree {
	if classes <= 0 {
		classes = maxLabel(d.Y) + 1
	}
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	t := &Tree{classes: classes, dims: d.Dims(), cfg: cfg}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	refBuild(t, d, idx, 0, rng)
	return t
}

func refBuild(t *Tree, d *features.Dataset, idx []int, depth int, rng *rand.Rand) int {
	counts := make([]float64, t.classes)
	for _, i := range idx {
		counts[d.Y[i]]++
	}
	nodeIdx := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: -1, counts: counts, total: float64(len(idx))})

	if len(idx) < t.cfg.MinSamplesSplit || gini(counts, float64(len(idx))) == 0 ||
		(t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) {
		return nodeIdx
	}
	feat, thr, ok := refBestSplit(t, d, idx, counts, rng)
	if !ok {
		return nodeIdx
	}
	var left, right []int
	for _, i := range idx {
		if d.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return nodeIdx
	}
	l := refBuild(t, d, left, depth+1, rng)
	r := refBuild(t, d, right, depth+1, rng)
	t.nodes[nodeIdx].feature = feat
	t.nodes[nodeIdx].threshold = thr
	t.nodes[nodeIdx].left = l
	t.nodes[nodeIdx].right = r
	return nodeIdx
}

func refBestSplit(t *Tree, d *features.Dataset, idx []int, parentCounts []float64, rng *rand.Rand) (feat int, thr float64, ok bool) {
	feats := make([]int, t.dims)
	for i := range feats {
		feats[i] = i
	}
	if t.cfg.MaxFeatures > 0 && t.cfg.MaxFeatures < t.dims {
		rng.Shuffle(len(feats), func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:t.cfg.MaxFeatures]
		sort.Ints(feats)
	}
	n := float64(len(idx))
	best := gini(parentCounts, n)
	bestFeat, bestThr := -1, 0.0
	order := make([]int, len(idx))
	leftCounts := make([]float64, t.classes)
	rightCounts := make([]float64, t.classes)

	for _, f := range feats {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return d.X[order[a]][f] < d.X[order[b]][f] })
		clear(leftCounts)
		copy(rightCounts, parentCounts)
		for k := 0; k < len(order)-1; k++ {
			y := d.Y[order[k]]
			leftCounts[y]++
			rightCounts[y]--
			xv, xn := d.X[order[k]][f], d.X[order[k+1]][f]
			if xv == xn {
				continue
			}
			nl, nr := float64(k+1), n-float64(k+1)
			score := (nl*gini(leftCounts, nl) + nr*gini(rightCounts, nr)) / n
			if score < best-1e-12 {
				best = score
				bestFeat = f
				bestThr = (xv + xn) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThr, true
}

func refFitForest(d *features.Dataset, classes int, cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 50
	}
	if classes <= 0 {
		classes = maxLabel(d.Y) + 1
	}
	maxFeat := int(math.Sqrt(float64(d.Dims())))
	if maxFeat < 1 {
		maxFeat = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{classes: classes, trees: make([]*Tree, cfg.Trees)}
	for t := 0; t < cfg.Trees; t++ {
		boot := &features.Dataset{Schema: d.Schema}
		for i := 0; i < d.Len(); i++ {
			j := rng.Intn(d.Len())
			boot.X = append(boot.X, d.X[j])
			boot.Y = append(boot.Y, d.Y[j])
		}
		f.trees[t] = refFitTree(boot, classes, TreeConfig{
			MaxDepth:        cfg.MaxDepth,
			MinSamplesSplit: cfg.MinSamplesSplit,
			MaxFeatures:     maxFeat,
			Seed:            rng.Int63(),
		})
	}
	return f
}

// refFitBoost returns nil where FitBoost reports "no usable weak learner".
func refFitBoost(d *features.Dataset, classes int, cfg BoostConfig) *Boost {
	if classes <= 0 {
		classes = maxLabel(d.Y) + 1
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 50
	}
	if cfg.WeakDepth <= 0 {
		cfg.WeakDepth = 2
	}
	n := d.Len()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := &Boost{classes: classes}
	sample := &features.Dataset{Schema: d.Schema}
	cum := make([]float64, n+1)

	for round := 0; round < cfg.Rounds; round++ {
		cum[0] = 0
		for i, wi := range w {
			cum[i+1] = cum[i] + wi
		}
		total := cum[n]
		sample.X = sample.X[:0]
		sample.Y = sample.Y[:0]
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
			sample.X = append(sample.X, d.X[lo])
			sample.Y = append(sample.Y, d.Y[lo])
		}
		tree := refFitTree(sample, classes, TreeConfig{MaxDepth: cfg.WeakDepth, Seed: rng.Int63()})
		var errw float64
		for i := range d.X {
			if tree.Predict(d.X[i]) != d.Y[i] {
				errw += w[i]
			}
		}
		if errw >= 1-1/float64(classes) {
			continue
		}
		if errw < 1e-10 {
			b.trees = append(b.trees, tree)
			b.alphas = append(b.alphas, 10)
			break
		}
		alpha := math.Log((1-errw)/errw) + math.Log(float64(classes)-1)
		b.trees = append(b.trees, tree)
		b.alphas = append(b.alphas, alpha)
		var sum float64
		for i := range w {
			if tree.Predict(d.X[i]) != d.Y[i] {
				w[i] *= math.Exp(alpha)
			}
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	if len(b.trees) == 0 {
		return nil
	}
	return b
}

// refForestProba is the vote that allocated one distribution per member.
func refForestProba(f *Forest, x []float64) []float64 {
	out := make([]float64, f.classes)
	for _, t := range f.trees {
		n := t.leaf(x)
		p := make([]float64, t.classes)
		if n.total != 0 {
			for c, v := range n.counts {
				p[c] = v / n.total
			}
		}
		for c, v := range p {
			out[c] += v
		}
	}
	n := float64(len(f.trees))
	for c := range out {
		out[c] /= n
	}
	return out
}
