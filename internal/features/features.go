// Package features turns data-store contents into labeled ML datasets —
// the "feature engineering as a first-class citizen" workflow of §2/§3:
// with the full data store available, features are computed after the
// fact, from ground truth, with no new measurement experiments.
package features

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"campuslab/internal/traffic"
)

// Dataset is a labeled design matrix. Rows of X align with Y; Schema names
// the columns.
type Dataset struct {
	Schema []string
	X      [][]float64
	Y      []int // class index (traffic.Label numeric value)
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Dims returns the feature dimensionality.
func (d *Dataset) Dims() int { return len(d.Schema) }

// validate checks internal consistency.
func (d *Dataset) validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("features: %d rows vs %d labels", len(d.X), len(d.Y))
	}
	for i, row := range d.X {
		if len(row) != len(d.Schema) {
			return fmt.Errorf("features: row %d has %d dims, schema has %d", i, len(row), len(d.Schema))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("features: row %d col %d (%s) is %v", i, j, d.Schema[j], v)
			}
		}
	}
	return nil
}

// ClassCounts tallies examples per class.
func (d *Dataset) ClassCounts() map[int]int {
	out := make(map[int]int)
	for _, y := range d.Y {
		out[y]++
	}
	return out
}

// Shuffle permutes examples deterministically.
func (d *Dataset) Shuffle(seed int64) {
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Split returns train/test datasets with the first trainFrac of examples
// in train (shuffle first for a random split).
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	n := int(float64(len(d.X)) * trainFrac)
	if n < 0 {
		n = 0
	}
	if n > len(d.X) {
		n = len(d.X)
	}
	train = &Dataset{Schema: d.Schema, X: d.X[:n], Y: d.Y[:n]}
	test = &Dataset{Schema: d.Schema, X: d.X[n:], Y: d.Y[n:]}
	return train, test
}

// Append adds other's rows (schemas must match).
func (d *Dataset) Append(other *Dataset) error {
	if len(d.Schema) == 0 {
		d.Schema = other.Schema
	}
	if len(other.Schema) != len(d.Schema) {
		return fmt.Errorf("features: schema mismatch %d vs %d", len(other.Schema), len(d.Schema))
	}
	d.X = append(d.X, other.X...)
	d.Y = append(d.Y, other.Y...)
	return nil
}

// BinaryRelabel maps the dataset to a two-class problem: positive (1) for
// the given label, 0 otherwise.
func (d *Dataset) BinaryRelabel(positive traffic.Label) *Dataset {
	out := &Dataset{Schema: d.Schema, X: d.X, Y: make([]int, len(d.Y))}
	for i, y := range d.Y {
		if y == int(positive) {
			out.Y[i] = 1
		}
	}
	return out
}

// Standardizer rescales features to zero mean / unit variance, fitted on
// training data and applied to both splits (never fit on test data).
type Standardizer struct {
	Mean  []float64
	Scale []float64
}

// FitStandardizer computes per-column statistics from d.
func FitStandardizer(d *Dataset) *Standardizer {
	dims := d.Dims()
	s := &Standardizer{Mean: make([]float64, dims), Scale: make([]float64, dims)}
	n := float64(len(d.X))
	if n == 0 {
		for j := range s.Scale {
			s.Scale[j] = 1
		}
		return s
	}
	for _, row := range d.X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range d.X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Scale[j] += dv * dv
		}
	}
	for j := range s.Scale {
		s.Scale[j] = math.Sqrt(s.Scale[j] / n)
		if s.Scale[j] == 0 {
			s.Scale[j] = 1
		}
	}
	return s
}

// entropy computes the Shannon entropy (bits) of a count distribution — a
// workhorse feature for scan/amplification detection. The terms are summed
// in ascending count order, not map order: float addition does not
// commute, so a map walk gave the same distribution different last bits
// from one call to the next.
func entropy[K comparable](counts map[K]int) float64 {
	total := 0
	cs := make([]int, 0, len(counts))
	for _, c := range counts {
		if c != 0 {
			cs = append(cs, c)
			total += c
		}
	}
	slices.Sort(cs)
	var h float64
	for _, c := range cs {
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// sortedKeys returns m's keys in the given order: every extractor that groups
// into a map emits its rows through it, so a dataset's row order — and
// with it every shuffle, split and model downstream — is a function of the
// store, not of Go's map iteration.
func sortedKeys[K comparable, V any](m map[K]V, order func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, order)
	return keys
}
