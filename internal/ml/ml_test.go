package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"campuslab/internal/features"
)

// blobs builds a separable 2-class dataset: class 0 around (0,0), class 1
// around (4,4), with noise sigma.
func blobs(n int, sigma float64, seed int64) *features.Dataset {
	r := rand.New(rand.NewSource(seed))
	d := &features.Dataset{Schema: []string{"x0", "x1"}}
	for i := 0; i < n; i++ {
		c := i % 2
		cx := float64(c * 4)
		d.X = append(d.X, []float64{cx + r.NormFloat64()*sigma, cx + r.NormFloat64()*sigma})
		d.Y = append(d.Y, c)
	}
	return d
}

// xorData is the classic not-linearly-separable problem.
func xorData(n int, seed int64) *features.Dataset {
	r := rand.New(rand.NewSource(seed))
	d := &features.Dataset{Schema: []string{"x0", "x1"}}
	for i := 0; i < n; i++ {
		a, b := r.Float64() > 0.5, r.Float64() > 0.5
		x0, x1 := 0.1, 0.1
		if a {
			x0 = 0.9
		}
		if b {
			x1 = 0.9
		}
		y := 0
		if a != b {
			y = 1
		}
		d.X = append(d.X, []float64{x0 + r.NormFloat64()*0.05, x1 + r.NormFloat64()*0.05})
		d.Y = append(d.Y, y)
	}
	return d
}

func TestTreeLearnsBlobs(t *testing.T) {
	train := blobs(400, 0.7, 1)
	test := blobs(200, 0.7, 2)
	tree, err := FitTree(train, 0, TreeConfig{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(tree, test).Accuracy(); acc < 0.95 {
		t.Errorf("tree accuracy %v on trivially separable data", acc)
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	train := xorData(400, 3)
	test := xorData(200, 4)
	tree, err := FitTree(train, 0, TreeConfig{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(tree, test).Accuracy(); acc < 0.95 {
		t.Errorf("tree accuracy %v on XOR", acc)
	}
}

func TestTreeDepthBound(t *testing.T) {
	train := xorData(500, 5)
	for _, maxD := range []int{1, 2, 3, 5} {
		tree, err := FitTree(train, 0, TreeConfig{MaxDepth: maxD})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Depth() > maxD {
			t.Errorf("depth %d > bound %d", tree.Depth(), maxD)
		}
	}
}

func TestTreePureLeavesProbability(t *testing.T) {
	d := &features.Dataset{
		Schema: []string{"a"},
		X:      [][]float64{{0}, {0}, {1}, {1}},
		Y:      []int{0, 0, 1, 1},
	}
	tree, err := FitTree(d, 0, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := tree.Proba([]float64{0})
	if p[0] != 1 || p[1] != 0 {
		t.Errorf("proba = %v", p)
	}
	if tree.Predict([]float64{1}) != 1 {
		t.Error("wrong class")
	}
}

func TestTreeDeterministic(t *testing.T) {
	train := blobs(300, 1.0, 7)
	a, _ := FitTree(train, 0, TreeConfig{MaxDepth: 6, Seed: 9})
	b, _ := FitTree(train, 0, TreeConfig{MaxDepth: 6, Seed: 9})
	test := blobs(100, 1.0, 8)
	for _, x := range test.X {
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same seed, different trees")
		}
	}
}

func TestTreeRulesCoverAndAgree(t *testing.T) {
	train := xorData(400, 11)
	tree, _ := FitTree(train, 0, TreeConfig{MaxDepth: 4})
	rules := tree.Rules()
	if len(rules) != tree.NumLeaves() {
		t.Fatalf("%d rules vs %d leaves", len(rules), tree.NumLeaves())
	}
	// Every example matches exactly one rule, and that rule's class is
	// the tree's prediction.
	for i, x := range train.X {
		matched := 0
		for _, r := range rules {
			ok := true
			for _, c := range r.Conds {
				if c.LE && !(x[c.Feature] <= c.Thr) || !c.LE && !(x[c.Feature] > c.Thr) {
					ok = false
					break
				}
			}
			if ok {
				matched++
				if r.Class != tree.Predict(x) {
					t.Fatalf("example %d: rule class %d != prediction %d", i, r.Class, tree.Predict(x))
				}
			}
		}
		if matched != 1 {
			t.Fatalf("example %d matched %d rules", i, matched)
		}
	}
	var support float64
	for _, r := range rules {
		support += r.Support
	}
	if math.Abs(support-1) > 1e-9 {
		t.Errorf("rule supports sum to %v", support)
	}
}

// TestTreeFeatureImportance: only feature 0 is informative, so the root
// splits on it.
func TestTreeFeatureImportance(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	d := &features.Dataset{Schema: []string{"signal", "noise"}}
	for i := 0; i < 400; i++ {
		c := i % 2
		d.X = append(d.X, []float64{float64(c) + r.NormFloat64()*0.1, r.NormFloat64()})
		d.Y = append(d.Y, c)
	}
	tree, _ := FitTree(d, 0, TreeConfig{MaxDepth: 4})
	if root := tree.Export()[0]; root.Feature != 0 {
		t.Errorf("root splits on feature %d, want the signal (0)", root.Feature)
	}
}

func TestFitTreeEmpty(t *testing.T) {
	if _, err := FitTree(&features.Dataset{}, 0, TreeConfig{}); err == nil {
		t.Error("accepted empty dataset")
	}
}

func TestForestBeatsOrMatchesTreeOnNoisyData(t *testing.T) {
	train := blobs(600, 2.2, 21) // heavy overlap
	test := blobs(400, 2.2, 22)
	tree, _ := FitTree(train, 0, TreeConfig{}) // unbounded: overfits
	forest, err := FitForest(train, 0, ForestConfig{Trees: 40, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	at := Evaluate(tree, test).Accuracy()
	af := Evaluate(forest, test).Accuracy()
	if af < at-0.02 {
		t.Errorf("forest %v worse than single overfit tree %v", af, at)
	}
	if forest.NumTrees() != 40 {
		t.Errorf("trees = %d", forest.NumTrees())
	}
	if forest.TotalNodes() <= tree.NumNodes() {
		t.Error("forest should be much bigger than one tree")
	}
}

func TestForestProbaSumsToOne(t *testing.T) {
	train := blobs(200, 1.0, 31)
	forest, _ := FitForest(train, 0, ForestConfig{Trees: 10, Seed: 32})
	fn := func(a, b float64) bool {
		p := forest.Proba([]float64{a, b})
		var s float64
		for _, v := range p {
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConfusionMetrics(t *testing.T) {
	m := Confusion{
		{50, 10}, // true 0: 50 right, 10 wrong
		{5, 35},  // true 1: 35 right, 5 wrong
	}
	if got := m.Accuracy(); math.Abs(got-0.85) > 1e-9 {
		t.Errorf("accuracy = %v", got)
	}
	if got := m.precision(1); math.Abs(got-35.0/45.0) > 1e-9 {
		t.Errorf("precision = %v", got)
	}
	if got := m.Recall(1); math.Abs(got-35.0/40.0) > 1e-9 {
		t.Errorf("recall = %v", got)
	}
	p, r := m.precision(1), m.Recall(1)
	if got := m.F1(1); math.Abs(got-2*p*r/(p+r)) > 1e-9 {
		t.Errorf("f1 = %v", got)
	}
	if m.String() == "" {
		t.Error("empty string render")
	}
}

func TestAgreement(t *testing.T) {
	train := blobs(300, 0.5, 51)
	a, _ := FitTree(train, 0, TreeConfig{MaxDepth: 5})
	if got := Agreement(a, a, train); got != 1 {
		t.Errorf("self agreement = %v", got)
	}
}

func BenchmarkFitTree(b *testing.B) {
	d := blobs(1000, 1.0, 71)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitTree(d, 0, TreeConfig{MaxDepth: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	d := blobs(500, 1.0, 72)
	f, _ := FitForest(d, 0, ForestConfig{Trees: 50, Seed: 73})
	x := []float64{2, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(x)
	}
}

// BenchmarkForestPredictBatch labels rows the way extraction does: a
// forest of 30 trees at depth 10 over 1 500 packet-like reference rows —
// benign traffic and DNS amplification, told apart by length, source port
// and answer count — asked for four times as many rows jittered around
// them by a quarter of each feature's std.
func BenchmarkForestPredictBatch(b *testing.B) {
	r := rand.New(rand.NewSource(75))
	ref := &features.Dataset{Schema: []string{"len", "udp", "sport", "dport", "answers", "ttl"}}
	for i := 0; i < 1500; i++ {
		y := 0
		row := []float64{float64(60 + r.Intn(1400)), float64(r.Intn(2)), float64(1024 + r.Intn(64000)), 443, 0, 64}
		switch r.Intn(4) {
		case 0: // DNS amplification: large answers from port 53
			y = 1
			row = []float64{float64(1000 + r.Intn(500)), 1, 53, float64(1024 + r.Intn(64000)), float64(10 + r.Intn(20)), 52}
		case 1: // ordinary DNS responses
			row = []float64{float64(80 + r.Intn(300)), 1, 53, float64(1024 + r.Intn(64000)), float64(1 + r.Intn(3)), 60}
		}
		ref.X = append(ref.X, row)
		ref.Y = append(ref.Y, y)
	}
	f, err := FitForest(ref, 2, ForestConfig{Trees: 30, MaxDepth: 10, Seed: 76, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	std := features.FitStandardizer(ref)
	X := make([][]float64, 4*ref.Len())
	for i := range X {
		base := ref.X[r.Intn(ref.Len())]
		x := make([]float64, len(base))
		for j, v := range base {
			x[j] = v + r.NormFloat64()*0.25*std.Scale[j]
		}
		X[i] = x
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatch(X, 1)
	}
}

func BenchmarkTreePredict(b *testing.B) {
	d := blobs(500, 1.0, 74)
	tr, _ := FitTree(d, 0, TreeConfig{MaxDepth: 8})
	x := []float64{2, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Predict(x)
	}
}
