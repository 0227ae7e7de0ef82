package control

import (
	"fmt"
	"time"

	"campuslab/internal/features"
	"campuslab/internal/obs"
)

// The model lifecycle is the self-healing layer: a state machine that
// watches the drift detector, retrains on a virtual-clock cadence, gates
// every candidate model behind a validation check (the road-test canary),
// and rolls back to the in-memory last-known-good bundle when the live
// model goes bad. States:
//
//	healthy ──drift──▶ degraded ──validation fails / drift persists──▶ lame-duck
//	   ▲                   │                                              │
//	   └──── candidate promoted ◀──── retrain + validate ◀────────────────┘
//
// healthy: the live model matches its training distribution. degraded:
// drift detected; an out-of-cycle retrain is scheduled. lame-duck: the
// live model is actively wrong (validation failed or drift persisted);
// the lifecycle has rolled back to the last-known-good bundle and serves
// that while retraining. All transitions are pure functions of the
// observed windows and the injected callbacks, so a seeded run produces
// the identical transition log every time.

// LifecycleState is the model's operational health.
type LifecycleState int32

const (
	// StateHealthy: no drift; periodic retrain cadence only.
	StateHealthy LifecycleState = iota
	// stateDegraded: drift detected; retrain scheduled now.
	stateDegraded
	// stateLameDuck: live model failed validation or drift persisted;
	// last-known-good is serving while retrain attempts continue.
	stateLameDuck
)

// String names the state (healthz, transition log).
func (s LifecycleState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case stateDegraded:
		return "degraded"
	default:
		return "lame-duck"
	}
}

// LifecycleConfig wires a lifecycle. Retrain, Validate, and Activate are
// injected so the lifecycle needs no knowledge of how models are built or
// road-tested (the canary lives a package up; see roadtest.RunCanary).
type LifecycleConfig struct {
	// RetrainEvery is the periodic retrain cadence on the virtual clock
	// (default 30 virtual minutes).
	RetrainEvery time.Duration
	// DegradedPatience is how many consecutive degraded Ticks are
	// tolerated before the state falls to lame-duck (default 2).
	DegradedPatience int
	// Drift parameterizes the detector thresholds.
	Drift DriftConfig

	// Retrain builds a candidate model bundle from the current store
	// (serialized; the lifecycle never inspects it). Called on the
	// periodic cadence and on drift.
	Retrain func() ([]byte, error)
	// Validate gates a candidate bundle — the canary hook. A false
	// verdict keeps (or demotes to) the previous model.
	Validate func(bundle []byte) (bool, error)
	// Activate deploys a bundle as the live model and returns the
	// refreshed drift reference (the distribution the bundle was trained
	// on) plus the classifier the drift detector should watch.
	Activate func(bundle []byte) (*features.Dataset, error)
}

// Lifecycle metrics.
var (
	obsLifecycleState     = obs.Default.Gauge("campuslab_lifecycle_state")
	obsLifecycleRetrains  = obs.Default.Counter("campuslab_lifecycle_retrains_total")
	obsLifecycleRollbacks = obs.Default.Counter("campuslab_lifecycle_rollbacks_total")
	obsLifecyclePromotes  = obs.Default.Counter("campuslab_lifecycle_promotions_total")
)

// Transition is one entry of the lifecycle's append-only decision log —
// the deterministic artifact E16 compares across runs.
type Transition struct {
	At     time.Duration // virtual time
	From   LifecycleState
	To     LifecycleState
	Reason string
}

// Lifecycle is the self-healing model state machine. Not goroutine-safe;
// drive it from one loop (labd's virtual-clock ticker or an experiment).
type Lifecycle struct {
	cfg      LifecycleConfig
	state    LifecycleState
	detector *driftDetector

	lastRetrain time.Duration
	degradedFor int
	lkg         []byte // last-known-good bundle
	live        []byte // currently active bundle
	classifier  classifierHolder
	log         []Transition
}

// NewLifecycle starts a lifecycle in the healthy state with bundle as the
// live (and last-known-good) model. The bundle must pass Activate.
func NewLifecycle(cfg LifecycleConfig, bundle []byte, now time.Duration) (*Lifecycle, error) {
	if cfg.Retrain == nil || cfg.Validate == nil || cfg.Activate == nil {
		return nil, fmt.Errorf("control: lifecycle needs Retrain, Validate, and Activate")
	}
	if cfg.RetrainEvery <= 0 {
		cfg.RetrainEvery = 30 * time.Minute
	}
	if cfg.DegradedPatience <= 0 {
		cfg.DegradedPatience = 2
	}
	lc := &Lifecycle{cfg: cfg, lastRetrain: now}
	if err := lc.activate(bundle); err != nil {
		return nil, err
	}
	lc.lkg = bundle
	obsLifecycleState.Set(float64(lc.state))
	return lc, nil
}

// activate deploys bundle and points the drift detector at it.
func (lc *Lifecycle) activate(bundle []byte) error {
	ref, err := lc.cfg.Activate(bundle)
	if err != nil {
		return fmt.Errorf("control: activate: %w", err)
	}
	det, err := newDriftDetector(ref, activatedModel{lc}, lc.cfg.Drift)
	if err != nil {
		return err
	}
	// Activate returns the reference; the detector needs the classifier
	// too. The Activate callback is expected to retain the live model
	// where the lifecycle's owner can reach it; the lifecycle itself only
	// tracks bundles. The detector's model is supplied via SetClassifier.
	lc.detector = det
	lc.live = bundle
	return nil
}

// activatedModel defers prediction to the owner-installed classifier; see
// SetClassifier.
type activatedModel struct{ lc *Lifecycle }

func (m activatedModel) Predict(x []float64) int {
	if m.lc.classifier == nil {
		return 0
	}
	return m.lc.classifier.Predict(x)
}
func (m activatedModel) Proba(x []float64) []float64 { return nil }
func (m activatedModel) NumClasses() int             { return 2 }

// State returns the current lifecycle state.
func (lc *Lifecycle) State() LifecycleState { return lc.state }

// Transitions returns the decision log (append-only; do not mutate).
func (lc *Lifecycle) Transitions() []Transition { return lc.log }

// LiveBundle returns the currently active model bundle.
func (lc *Lifecycle) LiveBundle() []byte { return lc.live }

// classifier is the live model in predict-callable form, installed by the
// owner after each Activate (the lifecycle cannot deserialize bundles —
// that knowledge lives with the owner's model format).
type classifierHolder = interface {
	Predict(x []float64) int
}

// SetClassifier installs the live model's predict function for the drift
// detector's recall proxy. Call after NewLifecycle and after any Tick
// that reports a model change.
func (lc *Lifecycle) SetClassifier(c classifierHolder) { lc.classifier = c }

// TickResult reports one lifecycle step.
type TickResult struct {
	State LifecycleState
	// Drift is the window's detector verdict.
	Drift DriftReport
	// Retrained / RolledBack / Promoted flag what happened this tick.
	Retrained, RolledBack, Promoted bool
	// ModelChanged means the live bundle changed (owner must refresh its
	// deserialized model and call SetClassifier).
	ModelChanged bool
	// Err carries a retrain/validation infrastructure failure (the state
	// machine treats it as a failed candidate, not a crash).
	Err error
}

// Tick advances the lifecycle at virtual time now with the window of
// labeled examples observed since the last tick. It runs the drift
// detector, decides retrain/rollback, and returns what changed.
func (lc *Lifecycle) Tick(now time.Duration, win *features.Dataset) TickResult {
	res := TickResult{}
	res.Drift = lc.detector.observe(win)

	switch lc.state {
	case StateHealthy:
		if res.Drift.Drifted {
			lc.transition(now, stateDegraded, driftReason(res.Drift))
			lc.degradedFor = 1
		}
	case stateDegraded:
		if res.Drift.Drifted {
			lc.degradedFor++
			if lc.degradedFor > lc.cfg.DegradedPatience {
				// Drift persisted: the live model is presumed wrong.
				// Serve last-known-good while retraining continues.
				lc.rollback(now, &res, "drift persisted past patience")
			}
		} else {
			lc.transition(now, StateHealthy, "drift cleared")
			lc.degradedFor = 0
		}
	case stateLameDuck:
		// Only a successful retrain+validate leaves lame-duck.
	}

	// Retrain on cadence, immediately when degraded, and every tick while
	// lame-duck (the system is actively unhealthy; keep trying).
	due := now-lc.lastRetrain >= lc.cfg.RetrainEvery
	if due || lc.state != StateHealthy {
		lc.retrain(now, &res)
	}
	res.State = lc.state
	obsLifecycleState.Set(float64(lc.state))
	return res
}

// retrain builds, validates, and (on success) promotes a candidate.
func (lc *Lifecycle) retrain(now time.Duration, res *TickResult) {
	lc.lastRetrain = now
	res.Retrained = true
	obsLifecycleRetrains.Inc()
	bundle, err := lc.cfg.Retrain()
	if err != nil {
		lc.candidateFailed(now, res, fmt.Errorf("retrain: %w", err))
		return
	}
	ok, err := lc.cfg.Validate(bundle)
	if err != nil {
		lc.candidateFailed(now, res, fmt.Errorf("validate: %w", err))
		return
	}
	if !ok {
		lc.candidateFailed(now, res, nil)
		return
	}
	// Candidate passed the canary: promote it to live and last-known-good.
	if err := lc.activate(bundle); err != nil {
		lc.candidateFailed(now, res, err)
		return
	}
	lc.lkg = bundle
	res.Promoted = true
	res.ModelChanged = true
	obsLifecyclePromotes.Inc()
	if lc.state != StateHealthy {
		lc.transition(now, StateHealthy, "validated candidate promoted")
	}
	lc.degradedFor = 0
}

// candidateFailed records a failed retrain attempt. A healthy system just
// keeps its model; a degraded one falls to lame-duck (the live model is
// suspect AND we cannot produce a better one — serve last-known-good).
func (lc *Lifecycle) candidateFailed(now time.Duration, res *TickResult, err error) {
	if err != nil {
		res.Err = err
	}
	if lc.state == stateDegraded {
		lc.rollback(now, res, "candidate failed validation while degraded")
	}
}

// rollback reverts to the last-known-good bundle and enters lame-duck.
func (lc *Lifecycle) rollback(now time.Duration, res *TickResult, reason string) {
	if lc.state == stateLameDuck {
		return
	}
	lc.transition(now, stateLameDuck, reason)
	obsLifecycleRollbacks.Inc()
	res.RolledBack = true
	if len(lc.lkg) > 0 && string(lc.lkg) != string(lc.live) {
		if err := lc.activate(lc.lkg); err != nil {
			res.Err = err
			return
		}
		res.ModelChanged = true
	}
}

// transition appends to the decision log.
func (lc *Lifecycle) transition(at time.Duration, to LifecycleState, reason string) {
	lc.log = append(lc.log, Transition{At: at, From: lc.state, To: to, Reason: reason})
	lc.state = to
}

func driftReason(r DriftReport) string {
	switch {
	case r.FeatureDrift && r.RecallDrift:
		return "feature and recall drift"
	case r.FeatureDrift:
		return fmt.Sprintf("feature drift (%d features)", r.DriftingFeatures)
	default:
		return "recall below floor"
	}
}
