package control

import (
	"fmt"
	"math"

	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/obs"
)

// Drift detection watches whether the data a deployed model sees still
// looks like the data it was trained on — the concept-drift gap AI4NETS
// names as the reason ML models rot in production networks. Two signals
// feed the lifecycle state machine:
//
//   - Feature drift: per-feature Population Stability Index (PSI) between
//     a frozen reference window (the training distribution) and the
//     current window. PSI < 0.1 is stable, 0.1–0.25 is shifting, > 0.25
//     is a different population — the standard industry reading.
//   - Recall proxy: the model's recall on the labeled replay stream (the
//     lab always knows ground truth for generated scenarios), smoothed
//     over a rolling window so one odd batch doesn't flap the state.
//
// Both are pure functions of the observed windows, so a seeded replay
// produces the identical drift trajectory every run.

// driftBins is the fixed histogram resolution. Edges are frozen from the
// reference window (equal-width over its observed range, with open-ended
// outer bins), so reference and current windows are always binned alike.
const driftBins = 10

// The detector reports feature drift once one feature's PSI exceeds
// PSIWarn, and recall drift when the rolling recall proxy over the last
// driftWindow labeled examples falls below driftMinRecall (only once
// MinLabeled positives have been observed).
const (
	driftMinRecall = 0.5
	driftWindow    = 512
)

// DriftConfig parameterizes a detector.
type DriftConfig struct {
	// PSIWarn marks a feature as shifting (default 0.25 — the classic
	// "population has changed" threshold).
	PSIWarn float64
	// MinLabeled is the minimum positive-example count before the recall
	// proxy is trusted (default 20).
	MinLabeled int
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.PSIWarn <= 0 {
		c.PSIWarn = 0.25
	}
	if c.MinLabeled <= 0 {
		c.MinLabeled = 20
	}
	return c
}

// featureRef is one feature's frozen reference histogram.
type featureRef struct {
	lo, width float64 // bin 0 starts at lo; driftBins equal-width bins
	ref       [driftBins]float64
}

// Drift metrics: the worst current PSI, drifting-feature count, and the
// rolling recall proxy.
var (
	obsDriftMaxPSI   = obs.Default.Gauge("campuslab_drift_max_psi")
	obsDriftFeatures = obs.Default.Gauge("campuslab_drift_features")
	obsDriftRecall   = obs.Default.Gauge("campuslab_drift_recall_proxy")
)

// driftDetector compares live windows against a frozen training
// reference. Not goroutine-safe; the owning lifecycle serializes access.
type driftDetector struct {
	cfg   DriftConfig
	refs  []featureRef
	dims  int
	model ml.Classifier

	// Rolling recall proxy over the last driftWindow labeled examples:
	// ring[i] packs (positive, hit).
	ring   []recallCell
	next   int
	filled bool
}

type recallCell struct{ positive, hit bool }

// newDriftDetector freezes ref as the training distribution and watches
// model's recall on labeled examples. ref must be the dataset (or a
// faithful sample of it) the model was trained on.
func newDriftDetector(ref *features.Dataset, model ml.Classifier, cfg DriftConfig) (*driftDetector, error) {
	if ref.Len() == 0 {
		return nil, fmt.Errorf("control: drift reference is empty")
	}
	cfg = cfg.withDefaults()
	d := &driftDetector{
		cfg: cfg, dims: ref.Dims(), model: model,
		ring: make([]recallCell, driftWindow),
	}
	d.refs = make([]featureRef, d.dims)
	for f := 0; f < d.dims; f++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range ref.X {
			lo = math.Min(lo, x[f])
			hi = math.Max(hi, x[f])
		}
		width := (hi - lo) / driftBins
		if width <= 0 {
			width = 1 // constant feature: everything lands in bin 0
		}
		r := &d.refs[f]
		r.lo, r.width = lo, width
		for _, x := range ref.X {
			r.ref[binOf(x[f], lo, width)]++
		}
		normalize(&r.ref, float64(ref.Len()))
	}
	return d, nil
}

// binOf maps v into the frozen bins; the outer bins are open-ended.
func binOf(v, lo, width float64) int {
	b := int((v - lo) / width)
	if b < 0 {
		return 0
	}
	if b >= driftBins {
		return driftBins - 1
	}
	return b
}

// normalize converts counts to proportions with a small floor so PSI's
// log-ratio never divides by zero (the standard smoothing).
func normalize(h *[driftBins]float64, total float64) {
	const floor = 1e-4
	for i := range h {
		h[i] = math.Max(h[i]/total, floor)
	}
}

// DriftReport is one window's verdict.
type DriftReport struct {
	// MaxPSI is the worst per-feature PSI this window.
	MaxPSI float64
	// DriftingFeatures counts features with PSI > PSIWarn.
	DriftingFeatures int
	// Recall is the rolling recall proxy (NaN until MinLabeled positives
	// have been seen).
	Recall float64
	// FeatureDrift / RecallDrift name which signal tripped.
	FeatureDrift, RecallDrift bool
	// Drifted is the combined verdict the lifecycle consumes.
	Drifted bool
}

// observe scores one labeled window (positives = class 1 in the binary
// framing the development loop uses) and returns the drift verdict.
func (d *driftDetector) observe(win *features.Dataset) DriftReport {
	var rep DriftReport
	if win.Len() == 0 {
		rep.Recall = d.recall()
		return rep
	}
	// Feature drift: PSI per feature against the frozen reference.
	var cur [driftBins]float64
	for f := 0; f < d.dims; f++ {
		r := &d.refs[f]
		clear(cur[:])
		for _, x := range win.X {
			cur[binOf(x[f], r.lo, r.width)]++
		}
		normalize(&cur, float64(win.Len()))
		psi := 0.0
		for i := range cur {
			psi += (cur[i] - r.ref[i]) * math.Log(cur[i]/r.ref[i])
		}
		if psi > rep.MaxPSI {
			rep.MaxPSI = psi
		}
		if psi > d.cfg.PSIWarn {
			rep.DriftingFeatures++
		}
	}
	// Recall proxy: feed the window's labeled examples into the ring.
	for i, x := range win.X {
		if win.Y[i] != 1 {
			continue
		}
		d.push(recallCell{positive: true, hit: d.model.Predict(x) == 1})
	}
	rep.Recall = d.recall()

	rep.FeatureDrift = rep.DriftingFeatures > 0
	rep.RecallDrift = !math.IsNaN(rep.Recall) && rep.Recall < driftMinRecall
	rep.Drifted = rep.FeatureDrift || rep.RecallDrift
	obsDriftMaxPSI.Set(rep.MaxPSI)
	obsDriftFeatures.Set(float64(rep.DriftingFeatures))
	if !math.IsNaN(rep.Recall) {
		obsDriftRecall.Set(rep.Recall)
	}
	return rep
}

func (d *driftDetector) push(c recallCell) {
	d.ring[d.next] = c
	d.next++
	if d.next == len(d.ring) {
		d.next, d.filled = 0, true
	}
}

// recall computes the rolling proxy; NaN until enough positives landed.
func (d *driftDetector) recall() float64 {
	n := d.next
	if d.filled {
		n = len(d.ring)
	}
	pos, hit := 0, 0
	for i := 0; i < n; i++ {
		if d.ring[i].positive {
			pos++
			if d.ring[i].hit {
				hit++
			}
		}
	}
	if pos < d.cfg.MinLabeled {
		return math.NaN()
	}
	return float64(hit) / float64(pos)
}

// setModel swaps the watched model (after a retrain or rollback) and
// clears the rolling recall window — the new model starts fresh.
func (d *driftDetector) setModel(m ml.Classifier) {
	d.model = m
	d.next, d.filled = 0, false
	for i := range d.ring {
		d.ring[i] = recallCell{}
	}
}
