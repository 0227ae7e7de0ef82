package ml

import (
	"fmt"
	"strings"

	"campuslab/internal/features"
)

// Confusion is a confusion matrix: Confusion[i][j] counts examples of true
// class i predicted as class j.
type Confusion [][]int

// batchPredictor is implemented by classifiers whose inference
// parallelizes over examples (the Forest); Evaluate uses it when present.
type batchPredictor interface {
	PredictBatch(X [][]float64, workers int) []int
}

// Evaluate runs the classifier over d and returns the confusion matrix.
// Classifiers implementing batchPredictor are evaluated with fan-out; the
// matrix is identical either way because predictions are index-addressed.
func Evaluate(c Classifier, d *features.Dataset) Confusion {
	n := c.NumClasses()
	m := make(Confusion, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	if bp, ok := c.(batchPredictor); ok {
		preds := bp.PredictBatch(d.X, 0)
		for i, y := range d.Y {
			if y >= n {
				continue // class unseen at training time
			}
			m[y][preds[i]]++
		}
		return m
	}
	for i, x := range d.X {
		y := d.Y[i]
		if y >= n {
			continue // class unseen at training time
		}
		m[y][c.Predict(x)]++
	}
	return m
}

// Accuracy is the trace over the total.
func (m Confusion) Accuracy() float64 {
	var correct, total int
	for i := range m {
		for j := range m[i] {
			total += m[i][j]
			if i == j {
				correct += m[i][j]
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// precision of class c: TP / (TP + FP).
func (m Confusion) precision(c int) float64 {
	var tp, fp int
	for i := range m {
		if i == c {
			tp = m[i][c]
		} else {
			fp += m[i][c]
		}
	}
	if tp+fp == 0 {
		return 0
	}
	return float64(tp) / float64(tp+fp)
}

// Recall of class c: TP / (TP + FN).
func (m Confusion) Recall(c int) float64 {
	var tp, fn int
	for j := range m[c] {
		if j == c {
			tp = m[c][j]
		} else {
			fn += m[c][j]
		}
	}
	if tp+fn == 0 {
		return 0
	}
	return float64(tp) / float64(tp+fn)
}

// F1 of class c.
func (m Confusion) F1(c int) float64 {
	p, r := m.precision(c), m.Recall(c)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix for reports.
func (m Confusion) String() string {
	var sb strings.Builder
	for i := range m {
		for j := range m[i] {
			fmt.Fprintf(&sb, "%8d", m[i][j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Agreement measures the fraction of examples on which two classifiers
// produce the same prediction — the fidelity metric for model extraction.
func Agreement(a, b Classifier, d *features.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	same := 0
	for _, x := range d.X {
		if a.Predict(x) == b.Predict(x) {
			same++
		}
	}
	return float64(same) / float64(d.Len())
}
