package control

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"campuslab/internal/features"
	"campuslab/internal/ml"
)

// driftDataset draws n rows from N(mean, 1) per feature, labels by a
// fixed rule so recall is measurable.
func driftDataset(n int, mean float64, seed int64) *features.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &features.Dataset{
		Schema: []string{"a", "b", "c"},
		X:      make([][]float64, n), Y: make([]int, n),
	}
	for i := range d.X {
		x := []float64{
			rng.NormFloat64() + mean,
			rng.NormFloat64() + mean,
			rng.NormFloat64() + mean,
		}
		d.X[i] = x
		if x[0] > mean { // half positive, centered on the window's mean
			d.Y[i] = 1
		}
	}
	return d
}

// constModel always predicts the same class.
type constModel int

func (m constModel) Predict([]float64) int     { return int(m) }
func (m constModel) Proba([]float64) []float64 { return nil }
func (m constModel) NumClasses() int           { return 2 }

// thresholdModel predicts 1 when x[0] > cut — a "real" model whose recall
// degrades when the distribution shifts.
type thresholdModel float64

func (m thresholdModel) Predict(x []float64) int {
	if x[0] > float64(m) {
		return 1
	}
	return 0
}
func (m thresholdModel) Proba([]float64) []float64 { return nil }
func (m thresholdModel) NumClasses() int           { return 2 }

func TestDriftDetectorStableWindow(t *testing.T) {
	ref := driftDataset(2000, 0, 1)
	det, err := newDriftDetector(ref, thresholdModel(0), DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := det.observe(driftDataset(1000, 0, 2))
	if rep.FeatureDrift || rep.Drifted {
		t.Fatalf("same-distribution window reported drift: %+v", rep)
	}
	if rep.MaxPSI > 0.1 {
		t.Fatalf("stable PSI = %.3f, want < 0.1", rep.MaxPSI)
	}
}

func TestDriftDetectorShiftedWindow(t *testing.T) {
	ref := driftDataset(2000, 0, 1)
	det, err := newDriftDetector(ref, thresholdModel(0), DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := det.observe(driftDataset(1000, 3, 2))
	if !rep.FeatureDrift || !rep.Drifted {
		t.Fatalf("3σ shift not detected: %+v", rep)
	}
	if rep.MaxPSI < 0.25 {
		t.Fatalf("shifted PSI = %.3f, want > 0.25", rep.MaxPSI)
	}
}

func TestDriftDetectorRecallProxy(t *testing.T) {
	ref := driftDataset(2000, 0, 1)
	// A model that never fires: recall 0 once enough positives observed.
	det, err := newDriftDetector(ref, constModel(0), DriftConfig{PSIWarn: 100})
	if err != nil {
		t.Fatal(err)
	}
	rep := det.observe(driftDataset(10, 0, 2))
	if !math.IsNaN(rep.Recall) {
		// At most 10 positives from 10 rows: below MinLabeled=20.
		t.Fatalf("recall trusted too early: %+v", rep)
	}
	rep = det.observe(driftDataset(200, 0, 3))
	if math.IsNaN(rep.Recall) || rep.Recall != 0 {
		t.Fatalf("recall = %v, want 0", rep.Recall)
	}
	if !rep.RecallDrift || !rep.Drifted {
		t.Fatalf("zero recall not flagged: %+v", rep)
	}
	// Swapping in a perfect model clears the window.
	det.setModel(thresholdModel(0))
	rep = det.observe(driftDataset(200, 0, 4))
	if rep.RecallDrift {
		t.Fatalf("fresh model inherited stale recall: %+v", rep)
	}
}

// lifecycleHarness wires a Lifecycle whose callbacks are scriptable.
type lifecycleHarness struct {
	retrains  int
	validates int
	pass      func(attempt int) bool // validation verdict per attempt
	refMean   float64
}

func (h *lifecycleHarness) config() LifecycleConfig {
	return LifecycleConfig{
		RetrainEvery:     10 * time.Minute,
		DegradedPatience: 2,
		Retrain: func() ([]byte, error) {
			h.retrains++
			return []byte(fmt.Sprintf("model-%d", h.retrains)), nil
		},
		Validate: func([]byte) (bool, error) {
			h.validates++
			if h.pass == nil {
				return true, nil
			}
			return h.pass(h.validates), nil
		},
		Activate: func([]byte) (*features.Dataset, error) {
			return driftDataset(2000, h.refMean, 1), nil
		},
	}
}

func TestLifecycleHealthyCadence(t *testing.T) {
	h := &lifecycleHarness{}
	lc, err := NewLifecycle(h.config(), []byte("model-0"), 0)
	if err != nil {
		t.Fatal(err)
	}
	lc.SetClassifier(thresholdModel(0))
	// Stable windows: no drift, retrain only at the 10-minute cadence.
	// Windows are large enough that small-sample PSI noise stays under
	// the 0.25 warn threshold.
	for min := 1; min <= 25; min++ {
		res := lc.Tick(time.Duration(min)*time.Minute, driftDataset(1000, 0, int64(min)))
		if res.State != StateHealthy {
			t.Fatalf("minute %d: state %v", min, res.State)
		}
	}
	if h.retrains != 2 {
		t.Fatalf("retrains = %d, want 2 (minutes 10 and 20)", h.retrains)
	}
	if len(lc.Transitions()) != 0 {
		t.Fatalf("healthy run logged transitions: %+v", lc.Transitions())
	}
}

func TestLifecycleDriftDegradesThenHeals(t *testing.T) {
	h := &lifecycleHarness{}
	lc, err := NewLifecycle(h.config(), []byte("model-0"), 0)
	if err != nil {
		t.Fatal(err)
	}
	lc.SetClassifier(thresholdModel(0))
	// A shifted window: degrade, retrain immediately, promote, heal.
	res := lc.Tick(time.Minute, driftDataset(500, 4, 9))
	if !res.Retrained || !res.Promoted || !res.ModelChanged {
		t.Fatalf("drift tick = %+v", res)
	}
	if res.State != StateHealthy {
		t.Fatalf("state after promotion = %v", res.State)
	}
	log := lc.Transitions()
	if len(log) != 2 || log[0].To != stateDegraded || log[1].To != StateHealthy {
		t.Fatalf("transition log %+v", log)
	}
}

func TestLifecycleRollbackToLastKnownGood(t *testing.T) {
	h := &lifecycleHarness{pass: func(int) bool { return false }}
	lc, err := NewLifecycle(h.config(), []byte("model-0"), 0)
	if err != nil {
		t.Fatal(err)
	}
	lc.SetClassifier(thresholdModel(0))
	// Persistent drift + failing validation: degraded → lame-duck with
	// rollback to the initial (last-known-good) bundle.
	var rolledBack bool
	for min := 1; min <= 4; min++ {
		res := lc.Tick(time.Duration(min)*time.Minute, driftDataset(500, 4, int64(min)))
		rolledBack = rolledBack || res.RolledBack
	}
	if lc.State() != stateLameDuck {
		t.Fatalf("state = %v, want lame-duck", lc.State())
	}
	if !rolledBack {
		t.Fatal("no rollback recorded")
	}
	if string(lc.LiveBundle()) != "model-0" {
		t.Fatalf("live bundle = %q, want last-known-good model-0", lc.LiveBundle())
	}
	// Validation starts passing: the next tick promotes and heals.
	h.pass = nil
	res := lc.Tick(10*time.Minute, driftDataset(500, 4, 99))
	if !res.Promoted || res.State != StateHealthy {
		t.Fatalf("recovery tick = %+v", res)
	}
}

func TestLifecycleDeterministicTransitions(t *testing.T) {
	run := func() []Transition {
		h := &lifecycleHarness{pass: func(a int) bool { return a > 2 }}
		lc, err := NewLifecycle(h.config(), []byte("m0"), 0)
		if err != nil {
			t.Fatal(err)
		}
		lc.SetClassifier(thresholdModel(0))
		for min := 1; min <= 8; min++ {
			mean := 0.0
			if min >= 3 && min <= 6 {
				mean = 4 // drift window
			}
			lc.Tick(time.Duration(min)*time.Minute, driftDataset(300, mean, int64(min)))
		}
		return lc.Transitions()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded runs diverge:\n%+v\nvs\n%+v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("scripted drift produced no transitions")
	}
}

func TestLifecycleStateStrings(t *testing.T) {
	for _, s := range []LifecycleState{StateHealthy, stateDegraded, stateLameDuck} {
		if s.String() == "" {
			t.Errorf("state %d has empty String()", s)
		}
	}
}

var _ ml.Classifier = constModel(0) // the test doubles satisfy the real interface
