package ml

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"campuslab/internal/features"
)

// serializeDataset builds a small deterministic two-class dataset.
func serializeDataset(n int, seed int64) *features.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &features.Dataset{
		Schema: []string{"f0", "f1", "f2", "f3", "f4", "f5"},
		X:      make([][]float64, n), Y: make([]int, n),
	}
	for i := range d.X {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		d.X[i] = x
		if x[0]+x[3] > 10 {
			d.Y[i] = 1
		}
	}
	return d
}

func TestTreeSerializeRoundTrip(t *testing.T) {
	d := serializeDataset(400, 1)
	tree, err := FitTree(d, 2, TreeConfig{MaxDepth: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTree(b)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions and probabilities identical on every training row.
	for i, x := range d.X {
		if tree.Predict(x) != got.Predict(x) {
			t.Fatalf("row %d: prediction differs", i)
		}
		p1, p2 := tree.Proba(x), got.Proba(x)
		for c := range p1 {
			if p1[c] != p2[c] {
				t.Fatalf("row %d class %d: proba %v vs %v", i, c, p1, p2)
			}
		}
	}
	// Re-marshal is byte-identical (stable format).
	b2, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("re-marshal differs")
	}
}

func TestForestSerializeRoundTrip(t *testing.T) {
	d := serializeDataset(300, 3)
	f, err := FitForest(d, 2, ForestConfig{Trees: 7, MaxDepth: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalForest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrees() != f.NumTrees() || got.NumClasses() != f.NumClasses() {
		t.Fatalf("shape differs: %d/%d vs %d/%d", got.NumTrees(), got.NumClasses(), f.NumTrees(), f.NumClasses())
	}
	for i, x := range d.X {
		p1, p2 := f.Proba(x), got.Proba(x)
		for c := range p1 {
			if p1[c] != p2[c] {
				t.Fatalf("row %d: proba differs", i)
			}
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	d := serializeDataset(200, 5)
	tree, _ := FitTree(d, 2, TreeConfig{MaxDepth: 4, Seed: 6})
	good, _ := tree.MarshalBinary()

	cases := map[string][]byte{
		"nil":       nil,
		"short":     good[:8],
		"bad magic": append([]byte("XXXX"), good[4:]...),
		"truncated": good[:len(good)-10],
	}
	// Bit flip anywhere in the body must be caught by the CRC.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit flip"] = flipped

	for name, b := range cases {
		if _, err := UnmarshalTree(b); !errors.Is(err, errBadModel) {
			t.Errorf("%s: want ErrBadModel, got %v", name, err)
		}
	}

	f, _ := FitForest(d, 2, ForestConfig{Trees: 3, MaxDepth: 3, Seed: 7})
	fb, _ := f.MarshalBinary()
	fflip := append([]byte(nil), fb...)
	fflip[len(fflip)/3] ^= 0x01
	if _, err := unmarshalForest(fflip); !errors.Is(err, errBadModel) {
		t.Errorf("forest bit flip: want ErrBadModel, got %v", err)
	}
	if _, err := unmarshalForest(good); !errors.Is(err, errBadModel) {
		t.Error("forest unmarshal accepted tree bytes")
	}
}
