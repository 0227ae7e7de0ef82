package xai

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"campuslab/internal/features"
	"campuslab/internal/ml"
)

// refExplain is Explain as it used to work: enumerate every rule of the
// tree and return the first one x satisfies.
func refExplain(t *ml.Tree, schema []string, x []float64) Evidence {
	var ev Evidence
	for _, r := range t.Rules() {
		ok := true
		for _, c := range r.Conds {
			if c.LE && !(x[c.Feature] <= c.Thr) || !c.LE && !(x[c.Feature] > c.Thr) {
				ok = false
				break
			}
		}
		if ok {
			ev.Class = r.Class
			ev.Confidence = r.Conf
			for _, c := range r.Conds {
				ev.Conditions = append(ev.Conditions, condString(schema, c))
			}
			if len(ev.Conditions) == 0 {
				ev.Conditions = []string{"(always)"}
			}
			return ev
		}
	}
	return ev
}

// refSynth is Extract's sampling loop with one allocation per row.
func refSynth(blackbox ml.Classifier, ref *features.Dataset, samples int, jitter float64, seed int64) *features.Dataset {
	rng := rand.New(rand.NewSource(seed))
	std := features.FitStandardizer(ref)
	synth := &features.Dataset{Schema: ref.Schema}
	for i := 0; i < samples; i++ {
		base := ref.X[rng.Intn(ref.Len())]
		x := make([]float64, len(base))
		for j, v := range base {
			x[j] = v + rng.NormFloat64()*jitter*std.Scale[j]
		}
		synth.X = append(synth.X, x)
		synth.Y = append(synth.Y, blackbox.Predict(x))
	}
	return synth
}

func TestExplainMatchesEnumeration(t *testing.T) {
	d := ringData(600, 21)
	forest := trainedForest(t, d)
	for _, depth := range []int{1, 3, 6} {
		ex, err := Extract(forest, d, ExtractConfig{MaxDepth: depth, Seed: 22})
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range d.X {
			if got, want := Explain(ex.Tree, d.Schema, x), refExplain(ex.Tree, d.Schema, x); !reflect.DeepEqual(got, want) {
				t.Fatalf("depth %d row %d: Explain %+v, enumeration %+v", depth, i, got, want)
			}
		}
	}
	// A tree that never split explains every decision as "(always)".
	stump, err := ml.FitTree(&features.Dataset{Schema: d.Schema, X: d.X[:3], Y: []int{1, 1, 1}}, 2, ml.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Explain(stump, d.Schema, d.X[0]), refExplain(stump, d.Schema, d.X[0]); !reflect.DeepEqual(got, want) {
		t.Fatalf("stump: Explain %+v, enumeration %+v", got, want)
	}
}

func TestExtractMatchesPerRowSampling(t *testing.T) {
	d := ringData(500, 23)
	forest := trainedForest(t, d)
	ex, err := Extract(forest, d, ExtractConfig{MaxDepth: 5, Samples: 1500, Jitter: 0.3, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ml.FitTree(refSynth(forest, d, 1500, 0.3, 24), 2, ml.TreeConfig{MaxDepth: 5, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := ex.Tree.MarshalBinary()
	wb, _ := want.MarshalBinary()
	if !bytes.Equal(gb, wb) {
		t.Fatal("extracted tree differs from the one fitted on per-row samples")
	}
}

func TestExtractRejectsRaggedReference(t *testing.T) {
	d := ringData(50, 25)
	forest := trainedForest(t, d)
	d.X[7] = d.X[7][:1]
	if _, err := Extract(forest, d, ExtractConfig{Seed: 1}); !errors.Is(err, ml.ErrBadDataset) {
		t.Fatalf("ragged reference: error %v, want ml.ErrBadDataset", err)
	}
}
