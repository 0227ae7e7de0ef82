// Package ml is campuslab's learning substrate: CART decision trees, a
// bagged random forest (the paper's offline "black-box model"), logistic
// regression, evaluation metrics, and k-fold cross-validation. Everything
// is deterministic given a seed — the property the paper's reproducibility
// argument (§5) depends on.
package ml

import (
	"fmt"
	"math"

	"campuslab/internal/features"
)

// Classifier predicts a class for a feature vector.
type Classifier interface {
	// Predict returns the most likely class index.
	Predict(x []float64) int
	// Proba returns per-class probabilities (length NumClasses).
	Proba(x []float64) []float64
	// NumClasses returns the number of classes the model was fit with.
	NumClasses() int
}

// TreeConfig controls CART induction.
type TreeConfig struct {
	// MaxDepth bounds tree depth (root = depth 0). <=0 means unbounded.
	MaxDepth int
	// MinSamplesSplit stops splitting smaller nodes (default 2).
	MinSamplesSplit int
	// MaxFeatures considers a random subset of features per split
	// (0 = all; forests pass sqrt(d)).
	MaxFeatures int
	// Seed drives feature subsampling.
	Seed int64
}

// treeNode is one node of a fitted tree, stored flat.
type treeNode struct {
	feature     int       // split feature, -1 for leaf
	threshold   float64   // go left if x[feature] <= threshold
	left, right int       // child indices
	counts      []float64 // class histogram at this node (leaves use it)
	total       float64
}

// Tree is a fitted CART decision tree.
type Tree struct {
	nodes   []treeNode
	classes int
	dims    int
	cfg     TreeConfig
}

// FitTree induces a CART tree on d using Gini impurity. A dataset with a
// label outside [0, classes), a NaN value or a ragged row is refused with
// an error wrapping ErrBadDataset.
func FitTree(d *features.Dataset, classes int, cfg TreeConfig) (*Tree, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	if classes <= 0 {
		classes = maxLabel(d.Y) + 1
	}
	if err := checkDataset(d, classes); err != nil {
		return nil, err
	}
	once := make([]int32, d.Len())
	for i := range once {
		once[i] = 1
	}
	return newBuilder(newPresort(d), classes).fit(once, cfg), nil
}

func maxLabel(ys []int) int {
	m := 0
	for _, y := range ys {
		if y > m {
			m = y
		}
	}
	return m
}

// gini computes Gini impurity from a class histogram.
func gini(counts []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / total
		g -= p * p
	}
	return g
}

// argmax returns the first index holding the largest value of p, and that
// value.
func argmax(p []float64) (int, float64) {
	best, bestV := 0, math.Inf(-1)
	for c, v := range p {
		if v > bestV {
			best, bestV = c, v
		}
	}
	return best, bestV
}

// leaf walks x down to its leaf node.
func (t *Tree) leaf(x []float64) *treeNode {
	n := &t.nodes[0]
	for n.feature >= 0 {
		if x[n.feature] <= n.threshold {
			n = &t.nodes[n.left]
		} else {
			n = &t.nodes[n.right]
		}
	}
	return n
}

// Predict implements Classifier.
func (t *Tree) Predict(x []float64) int {
	best, _ := argmax(t.leaf(x).counts)
	return best
}

// Proba implements Classifier.
func (t *Tree) Proba(x []float64) []float64 {
	n := t.leaf(x)
	out := make([]float64, t.classes)
	if n.total == 0 {
		return out
	}
	for c, v := range n.counts {
		out[c] = v / n.total
	}
	return out
}

// NumClasses implements Classifier.
func (t *Tree) NumClasses() int { return t.classes }

// Depth returns the fitted tree's depth.
func (t *Tree) Depth() int { return t.depth(0) }

func (t *Tree) depth(i int) int {
	n := &t.nodes[i]
	if n.feature < 0 {
		return 0
	}
	l, r := t.depth(n.left), t.depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NumLeaves returns the number of leaf nodes — the rule count after
// compilation to match-action entries.
func (t *Tree) NumLeaves() int {
	n := 0
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			n++
		}
	}
	return n
}

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Rule is one root-to-leaf path: the conjunction of threshold conditions
// and the class it predicts — the paper's operator-readable "list of
// pieces of evidence".
type Rule struct {
	Conds   []Cond
	Class   int
	Conf    float64 // leaf purity
	Support float64 // fraction of training data in the leaf
}

// Cond is one threshold condition on a feature.
type Cond struct {
	Feature int
	LE      bool // true: x[f] <= Thr; false: x[f] > Thr
	Thr     float64
}

// Rules enumerates every root-to-leaf path.
func (t *Tree) Rules() []Rule {
	var out []Rule
	var walk func(i int, conds []Cond)
	walk = func(i int, conds []Cond) {
		n := &t.nodes[i]
		if n.feature < 0 {
			out = append(out, t.leafRule(n, append([]Cond(nil), conds...)))
			return
		}
		walk(n.left, append(conds, Cond{Feature: n.feature, LE: true, Thr: n.threshold}))
		walk(n.right, append(conds, Cond{Feature: n.feature, LE: false, Thr: n.threshold}))
	}
	walk(0, nil)
	return out
}

// RuleFor returns the one rule of Rules whose path x takes, walking only
// that path.
func (t *Tree) RuleFor(x []float64) Rule {
	var conds []Cond
	n := &t.nodes[0]
	for n.feature >= 0 {
		le := x[n.feature] <= n.threshold
		conds = append(conds, Cond{Feature: n.feature, LE: le, Thr: n.threshold})
		if le {
			n = &t.nodes[n.left]
		} else {
			n = &t.nodes[n.right]
		}
	}
	return t.leafRule(n, conds)
}

// leafRule is the rule ending at leaf n after conds.
func (t *Tree) leafRule(n *treeNode, conds []Cond) Rule {
	best, bestC := argmax(n.counts)
	conf := 0.0
	if n.total > 0 {
		conf = bestC / n.total
	}
	return Rule{Conds: conds, Class: best, Conf: conf, Support: n.total / t.nodes[0].total}
}

// ExportedNode is one node of a fitted tree in compiler-consumable form:
// flat indices, the split threshold, and the class histogram the node was
// fitted on (see Tree.Export). Counts/Total let a consumer reproduce the
// exact leaf probabilities Proba computes, including for internal nodes —
// what depth-capped lowering needs.
type ExportedNode struct {
	Feature     int     // split feature, -1 for a leaf
	Threshold   float64 // go left if x[Feature] <= Threshold
	Left, Right int     // child node indices (valid when Feature >= 0)
	Counts      []float64
	Total       float64
}

// Export returns the tree's nodes flat, root at index 0. Counts slices are
// copies; mutating the result never affects the tree.
func (t *Tree) Export() []ExportedNode {
	out := make([]ExportedNode, len(t.nodes))
	for i := range t.nodes {
		n := &t.nodes[i]
		out[i] = ExportedNode{
			Feature: n.feature, Threshold: n.threshold,
			Left: n.left, Right: n.right,
			Counts: append([]float64(nil), n.counts...),
			Total:  n.total,
		}
	}
	return out
}
