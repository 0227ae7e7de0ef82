// Package xai implements step (ii) and (iv) of the paper's §5 road-map:
// replace the offline black-box model with a deployable learning model
// that is "explainable or interpretable, lightweight and closely
// approximates the original model" (model extraction à la Bastani et al.),
// and produce the operator-facing evidence listings that turn the black
// box into a white box.
package xai

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/obs"
)

// ExtractConfig controls model extraction.
type ExtractConfig struct {
	// MaxDepth bounds the extracted tree — the explainability budget.
	// Smaller trees are easier to audit and compile (default 4).
	MaxDepth int
	// Samples is the number of synthetic points labeled by the black box
	// (default 4x the reference set).
	Samples int
	// Jitter scales the Gaussian noise added when resampling reference
	// points, as a fraction of each feature's std (default 0.25).
	Jitter float64
	// Seed drives sampling.
	Seed int64
}

// Extraction is the result of distilling a black box into a tree.
type Extraction struct {
	// Tree is the deployable model.
	Tree *ml.Tree
	// Fidelity is agreement with the black box on the reference set.
	Fidelity float64
	// Samples is how many synthetic points were used.
	Samples int
}

// batchPredictor is a black box that labels many rows in one call.
type batchPredictor interface {
	PredictBatch(X [][]float64, workers int) []int
}

// Extract distills blackbox into a depth-bounded decision tree: sample
// points around the reference distribution, label them with the black box,
// and fit a tree to the black box's behaviour (not to ground truth — the
// tree mimics the model, which is what makes fidelity meaningful).
func Extract(blackbox ml.Classifier, ref *features.Dataset, cfg ExtractConfig) (*Extraction, error) {
	defer obs.Default.StartSpan("extract").End()
	if ref.Len() == 0 {
		return nil, fmt.Errorf("xai: empty reference dataset")
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 4 * ref.Len()
	}
	if cfg.Jitter <= 0 {
		cfg.Jitter = 0.25
	}
	dims := ref.Dims()
	for i, row := range ref.X {
		if len(row) != dims {
			return nil, fmt.Errorf("xai: reference row %d has %d values, schema has %d: %w", i, len(row), dims, ml.ErrBadDataset)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-dimension std for jitter scaling.
	std := features.FitStandardizer(ref)

	// Synthetic rows are cut from one slab, then labelled in one pass: a
	// black box with a batch path (the forest's code-word memo) votes once
	// per distinct word instead of once per row.
	slab := make([]float64, cfg.Samples*dims)
	synth := &features.Dataset{Schema: ref.Schema, X: make([][]float64, cfg.Samples)}
	for i := range synth.X {
		base := ref.X[rng.Intn(ref.Len())]
		x := slab[i*dims : (i+1)*dims : (i+1)*dims]
		for j, v := range base {
			x[j] = v + rng.NormFloat64()*cfg.Jitter*std.Scale[j]
		}
		synth.X[i] = x
	}
	if bp, ok := blackbox.(batchPredictor); ok {
		synth.Y = bp.PredictBatch(synth.X, 1)
	} else {
		synth.Y = make([]int, cfg.Samples)
		for i, x := range synth.X {
			synth.Y[i] = blackbox.Predict(x)
		}
	}
	tree, err := ml.FitTree(synth, blackbox.NumClasses(), ml.TreeConfig{
		MaxDepth: cfg.MaxDepth, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("xai: fitting extracted tree: %w", err)
	}
	return &Extraction{
		Tree:     tree,
		Fidelity: ml.Agreement(blackbox, tree, ref),
		Samples:  cfg.Samples,
	}, nil
}

// Evidence is the operator-readable justification for one decision: the
// exact conditions on named features the packet/flow satisfied, plus the
// leaf's confidence — §5's "list of pieces of evidence that the model used
// to arrive at its decisions".
type Evidence struct {
	Class      int
	Confidence float64
	Conditions []string
}

// String renders the evidence as an operator would read it.
func (e Evidence) String() string {
	return fmt.Sprintf("class=%d conf=%.2f because %s",
		e.Class, e.Confidence, strings.Join(e.Conditions, " AND "))
}

// Explain walks x down the extracted tree, returning the decision path as
// named conditions.
func Explain(t *ml.Tree, schema []string, x []float64) Evidence {
	r := t.RuleFor(x)
	ev := Evidence{Class: r.Class, Confidence: r.Conf}
	for _, c := range r.Conds {
		ev.Conditions = append(ev.Conditions, condString(schema, c))
	}
	if len(ev.Conditions) == 0 {
		ev.Conditions = []string{"(always)"}
	}
	return ev
}

func condString(schema []string, c ml.Cond) string {
	name := fmt.Sprintf("f%d", c.Feature)
	if c.Feature < len(schema) {
		name = schema[c.Feature]
	}
	op := ">"
	if c.LE {
		op = "<="
	}
	return fmt.Sprintf("%s %s %.3g", name, op, c.Thr)
}

// RuleSet renders every rule of the tree, most-supported first — the
// artifact handed to the operator in road-map step (iv).
func RuleSet(t *ml.Tree, schema []string, classNames func(int) string) []string {
	rules := t.Rules()
	sort.Slice(rules, func(i, j int) bool { return rules[i].Support > rules[j].Support })
	out := make([]string, 0, len(rules))
	for _, r := range rules {
		conds := make([]string, 0, len(r.Conds))
		for _, c := range r.Conds {
			conds = append(conds, condString(schema, c))
		}
		cond := strings.Join(conds, " AND ")
		if cond == "" {
			cond = "(always)"
		}
		name := fmt.Sprintf("class %d", r.Class)
		if classNames != nil {
			name = classNames(r.Class)
		}
		out = append(out, fmt.Sprintf("IF %s THEN %s (conf %.2f, support %.1f%%)",
			cond, name, r.Conf, 100*r.Support))
	}
	return out
}
