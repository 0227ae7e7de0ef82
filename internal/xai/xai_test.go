package xai

import (
	"math/rand"
	"strings"
	"testing"

	"campuslab/internal/features"
	"campuslab/internal/ml"
)

// ringData is a nonlinear 2-class problem (inner blob vs outer ring) that
// a forest learns well and a shallow tree can approximate.
func ringData(n int, seed int64) *features.Dataset {
	r := rand.New(rand.NewSource(seed))
	d := &features.Dataset{Schema: []string{"x0", "x1"}}
	for i := 0; i < n; i++ {
		x0, x1 := r.NormFloat64()*2, r.NormFloat64()*2
		y := 0
		if x0*x0+x1*x1 > 4 {
			y = 1
		}
		d.X = append(d.X, []float64{x0, x1})
		d.Y = append(d.Y, y)
	}
	return d
}

func trainedForest(t testing.TB, d *features.Dataset) *ml.Forest {
	t.Helper()
	f, err := ml.FitForest(d, 0, ml.ForestConfig{Trees: 30, MaxDepth: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestExtractHighFidelity(t *testing.T) {
	train := ringData(800, 1)
	test := ringData(400, 3)
	forest := trainedForest(t, train)
	ex, err := Extract(forest, train, ExtractConfig{MaxDepth: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Fidelity < 0.9 {
		t.Errorf("fidelity = %v, want >= 0.9", ex.Fidelity)
	}
	blackBox, extracted := ml.Evaluate(forest, test).Accuracy(), ml.Evaluate(ex.Tree, test).Accuracy()
	if extracted < blackBox-0.1 {
		t.Errorf("extracted accuracy %v much worse than black box %v", extracted, blackBox)
	}
	if ex.Tree.NumNodes() >= forest.TotalNodes()/10 {
		t.Errorf("extracted size %d not much smaller than %d", ex.Tree.NumNodes(), forest.TotalNodes())
	}
}

func TestFidelityGrowsWithDepth(t *testing.T) {
	train := ringData(800, 5)
	forest := trainedForest(t, train)
	var prev float64
	notWorse := 0
	depths := []int{1, 3, 6, 9}
	fids := make([]float64, len(depths))
	for i, depth := range depths {
		ex, err := Extract(forest, train, ExtractConfig{MaxDepth: depth, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		fids[i] = ex.Fidelity
		if ex.Fidelity >= prev-0.02 {
			notWorse++
		}
		prev = ex.Fidelity
	}
	if notWorse < len(depths)-1 {
		t.Errorf("fidelity not broadly increasing with depth: %v", fids)
	}
	if fids[len(fids)-1] <= fids[0] {
		t.Errorf("deep tree fidelity %v <= stump fidelity %v", fids[len(fids)-1], fids[0])
	}
}

func TestExtractTreeMimicsModelNotTruth(t *testing.T) {
	// Train a deliberately wrong black box (labels flipped); the
	// extracted tree must agree with the black box, not the truth.
	train := ringData(500, 7)
	flipped := &features.Dataset{Schema: train.Schema, X: train.X, Y: make([]int, train.Len())}
	for i, y := range train.Y {
		flipped.Y[i] = 1 - y
	}
	forest := trainedForest(t, flipped)
	ex, err := Extract(forest, train, ExtractConfig{MaxDepth: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Fidelity < 0.85 {
		t.Errorf("fidelity to (wrong) black box = %v", ex.Fidelity)
	}
	// Accuracy against the real labels should be awful.
	if acc := ml.Evaluate(ex.Tree, train).Accuracy(); acc > 0.3 {
		t.Errorf("extracted tree accuracy on truth = %v; should mimic the wrong model", acc)
	}
}

func TestExplainProducesConditions(t *testing.T) {
	train := ringData(500, 9)
	forest := trainedForest(t, train)
	ex, err := Extract(forest, train, ExtractConfig{MaxDepth: 4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{5, 5} // clearly outer ring
	ev := Explain(ex.Tree, train.Schema, x)
	if ev.Class != ex.Tree.Predict(x) {
		t.Errorf("evidence class %d != prediction %d", ev.Class, ex.Tree.Predict(x))
	}
	if len(ev.Conditions) == 0 {
		t.Fatal("no conditions")
	}
	for _, c := range ev.Conditions {
		if !strings.Contains(c, "x0") && !strings.Contains(c, "x1") && c != "(always)" {
			t.Errorf("condition %q does not use schema names", c)
		}
	}
	if ev.Confidence <= 0 || ev.Confidence > 1 {
		t.Errorf("confidence = %v", ev.Confidence)
	}
	if s := ev.String(); !strings.Contains(s, "because") {
		t.Errorf("String = %q", s)
	}
}

func TestRuleSetRendering(t *testing.T) {
	train := ringData(500, 11)
	forest := trainedForest(t, train)
	ex, _ := Extract(forest, train, ExtractConfig{MaxDepth: 3, Seed: 12})
	rules := RuleSet(ex.Tree, train.Schema, func(c int) string {
		if c == 1 {
			return "ATTACK"
		}
		return "BENIGN"
	})
	if len(rules) != ex.Tree.NumLeaves() {
		t.Fatalf("%d rules vs %d leaves", len(rules), ex.Tree.NumLeaves())
	}
	for _, r := range rules {
		if !strings.HasPrefix(r, "IF ") || !strings.Contains(r, "THEN") {
			t.Errorf("malformed rule %q", r)
		}
		if !strings.Contains(r, "ATTACK") && !strings.Contains(r, "BENIGN") {
			t.Errorf("rule without class name: %q", r)
		}
	}
	// Sorted by support, descending.
	// (Spot check: first rule has support >= last rule.)
	first := rules[0]
	last := rules[len(rules)-1]
	if !strings.Contains(first, "support") || !strings.Contains(last, "support") {
		t.Error("support missing from rendering")
	}
}

func TestExtractValidation(t *testing.T) {
	if _, err := Extract(nil, &features.Dataset{}, ExtractConfig{}); err == nil {
		t.Error("accepted empty reference")
	}
}

func TestExtractDeterministic(t *testing.T) {
	train := ringData(300, 13)
	forest := trainedForest(t, train)
	a, _ := Extract(forest, train, ExtractConfig{MaxDepth: 4, Seed: 14})
	b, _ := Extract(forest, train, ExtractConfig{MaxDepth: 4, Seed: 14})
	if a.Fidelity != b.Fidelity {
		t.Error("extraction not deterministic")
	}
	for _, x := range train.X {
		if a.Tree.Predict(x) != b.Tree.Predict(x) {
			t.Fatal("trees differ")
		}
	}
}

func BenchmarkExtract(b *testing.B) {
	train := ringData(400, 15)
	forest, _ := ml.FitForest(train, 0, ml.ForestConfig{Trees: 20, MaxDepth: 8, Seed: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(forest, train, ExtractConfig{MaxDepth: 4, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
