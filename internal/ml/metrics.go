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
	preds := batchPredictions(c, d.X, 0)
	for i, y := range d.Y {
		if y >= n {
			continue // class unseen at training time
		}
		m[y][predictionAt(c, preds, d.X, i)]++
	}
	return m
}

// batchPredictions is c's answer for every row of X, over workers, when c
// has a batch path, and nil when it has none.
func batchPredictions(c Classifier, X [][]float64, workers int) []int {
	if bp, ok := c.(batchPredictor); ok {
		return bp.PredictBatch(X, workers)
	}
	return nil
}

// predictionAt is c's answer for row i of X: from preds, what
// batchPredictions returned, or else by Predict.
func predictionAt(c Classifier, preds []int, X [][]float64, i int) int {
	if preds != nil {
		return preds[i]
	}
	return c.Predict(X[i])
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
// A classifier with a batch path answers through it, as in Evaluate, but
// on the caller's goroutine: extraction, its caller, runs serially.
func Agreement(a, b Classifier, d *features.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	pa, pb := batchPredictions(a, d.X, 1), batchPredictions(b, d.X, 1)
	same := 0
	for i := range d.X {
		if predictionAt(a, pa, d.X, i) == predictionAt(b, pb, d.X, i) {
			same++
		}
	}
	return float64(same) / float64(d.Len())
}
