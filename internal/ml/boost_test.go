package ml

import (
	"testing"

	"campuslab/internal/features"
)

func TestBoostLearnsXOR(t *testing.T) {
	// Depth-2 weak learners can carve XOR; boosting should reach high
	// accuracy where a single stump cannot.
	train := xorData(600, 101)
	test := xorData(300, 102)
	b, err := FitBoost(train, 0, BoostConfig{Rounds: 40, WeakDepth: 2, Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(b, test).Accuracy(); acc < 0.95 {
		t.Errorf("boost accuracy %v on XOR", acc)
	}
	stump, _ := FitTree(train, 0, TreeConfig{MaxDepth: 1})
	if acc := Evaluate(stump, test).Accuracy(); acc > 0.8 {
		t.Errorf("single stump 'solved' XOR (%v) — boosting comparison meaningless", acc)
	}
}

func TestBoostBeatsWeakLearnerOnNoisyBlobs(t *testing.T) {
	train := blobs(600, 2.0, 104)
	test := blobs(400, 2.0, 105)
	weak, _ := FitTree(train, 0, TreeConfig{MaxDepth: 1})
	b, err := FitBoost(train, 0, BoostConfig{Rounds: 30, WeakDepth: 1, Seed: 106})
	if err != nil {
		t.Fatal(err)
	}
	wa := Evaluate(weak, test).Accuracy()
	ba := Evaluate(b, test).Accuracy()
	if ba < wa-0.02 {
		t.Errorf("boost %v worse than its weak learner %v", ba, wa)
	}
}

func TestBoostProbaNormalized(t *testing.T) {
	train := blobs(300, 1.0, 107)
	b, err := FitBoost(train, 0, BoostConfig{Rounds: 10, Seed: 108})
	if err != nil {
		t.Fatal(err)
	}
	p := b.Proba([]float64{1, 1})
	var sum float64
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("proba sums to %v", sum)
	}
	if len(b.trees) == 0 || b.TotalNodes() == 0 {
		t.Error("empty ensemble")
	}
}

func TestBoostMulticlass(t *testing.T) {
	// Three separable blobs.
	d := &features.Dataset{Schema: []string{"x"}}
	for i := 0; i < 300; i++ {
		c := i % 3
		d.X = append(d.X, []float64{float64(c*10) + float64(i%5)})
		d.Y = append(d.Y, c)
	}
	b, err := FitBoost(d, 3, BoostConfig{Rounds: 20, WeakDepth: 2, Seed: 109})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(b, d).Accuracy(); acc < 0.98 {
		t.Errorf("multiclass boost accuracy %v", acc)
	}
}

func TestBoostEmptyDataset(t *testing.T) {
	if _, err := FitBoost(&features.Dataset{}, 0, BoostConfig{}); err == nil {
		t.Error("accepted empty dataset")
	}
}

func TestBoostDeterministic(t *testing.T) {
	train := blobs(300, 1.5, 110)
	a, _ := FitBoost(train, 0, BoostConfig{Rounds: 15, Seed: 111})
	b, _ := FitBoost(train, 0, BoostConfig{Rounds: 15, Seed: 111})
	for _, x := range train.X[:50] {
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same seed, different ensembles")
		}
	}
}

func BenchmarkFitBoost(b *testing.B) {
	d := blobs(500, 1.0, 112)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitBoost(d, 0, BoostConfig{Rounds: 20, Seed: 113}); err != nil {
			b.Fatal(err)
		}
	}
}
