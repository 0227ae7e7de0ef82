package core

import (
	"fmt"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/obs"
	"campuslab/internal/traffic"
)

// CampusSpec describes one participating university: same open-sourced
// algorithm, different network (size, mix, attack intensity, time zone) —
// §5's reproducibility-across-campuses experiment. Data never leaves a
// campus; only the algorithm travels.
type CampusSpec struct {
	Name           string
	HostsPerDept   int
	FlowsPerSecond float64
	// Duration of the collected scenario.
	Duration time.Duration
	// AttackRate scales the overlaid attack episode (pps).
	AttackRate float64
	// StartHour shifts the diurnal curve (time zones).
	StartHour int
	// Seed makes this campus's traffic unique and reproducible.
	Seed int64
	// Shards/Workers shape the campus's local store and ingest fan-out
	// (0 = the Lab defaults). Store content is shard- and worker-count
	// independent; these only tune throughput.
	Shards  int
	Workers int
}

// Campus is one campus as a development round sees it: a name and the
// packet store its taps (local, or streamed over the fleet ingest
// protocol) have filled.
type Campus struct {
	Name  string
	Store *datastore.Store
	// Features overrides the standard packet featurizer when non-nil
	// (tests inject canned datasets; Store may then be nil).
	Features func() *features.Dataset
}

// CrossCampusResult is the train-on-i, evaluate-on-j matrix.
type CrossCampusResult struct {
	Campuses []string
	// Accuracy[i][j]: deployable model trained at campus i, tested on
	// campus j's held-out data.
	Accuracy [][]float64
	// F1 of the attack class in the same arrangement.
	F1 [][]float64
	// Fidelity[i] is extraction fidelity at the home campus.
	Fidelity []float64
}

// DiagonalMean averages self-campus accuracy (train = test campus).
func (r *CrossCampusResult) DiagonalMean() float64 {
	var s float64
	for i := range r.Accuracy {
		s += r.Accuracy[i][i]
	}
	return s / float64(len(r.Accuracy))
}

// OffDiagonalMean averages transfer accuracy (train != test campus).
func (r *CrossCampusResult) OffDiagonalMean() float64 {
	var s float64
	var n int
	for i := range r.Accuracy {
		for j := range r.Accuracy[i] {
			if i != j {
				s += r.Accuracy[i][j]
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// RunCrossCampus simulates each campus, trains the algorithm locally, and
// evaluates every model on every campus's held-out test set.
func RunCrossCampus(specs []CampusSpec, cfg DevelopConfig) (*CrossCampusResult, error) {
	if len(specs) < 2 {
		return nil, fmt.Errorf("core: cross-campus needs >= 2 campuses, got %d", len(specs))
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := len(specs)
	models := make([]*ml.Tree, n)
	tests := make([]*features.Dataset, n)
	res := &CrossCampusResult{Campuses: make([]string, n), Fidelity: make([]float64, n)}
	for i, spec := range specs {
		res.Campuses[i] = spec.Name
		lab, gen, err := BuildCampusScenario(spec, cfg.Target)
		if err == nil {
			_, err = lab.Collect(gen)
		}
		if err != nil {
			return nil, fmt.Errorf("core: campus %s: %w", spec.Name, err)
		}
		fit, err := fitCampus(Campus{Name: spec.Name, Store: lab.Store()}, cfg, spec.Seed)
		if err != nil {
			return nil, err
		}
		ex, err := fit.extract(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: extracting at %s: %w", spec.Name, err)
		}
		models[i], tests[i], res.Fidelity[i] = ex.Tree, fit.test, ex.Fidelity
	}
	res.Accuracy, res.F1 = evalMatrix(models, tests, ml.Confusion.Accuracy, f1)
	return res, nil
}

// evalMatrix is the train-here/test-there matrix every multi-campus round
// reports: cell [i][j] of a and of b is metric fa and fb of model i on
// campus j's held-out split.
func evalMatrix[M ml.Classifier](models []M, tests []*features.Dataset, fa, fb func(ml.Confusion) float64) (a, b [][]float64) {
	a, b = make([][]float64, len(models)), make([][]float64, len(models))
	for i, model := range models {
		a[i], b[i] = make([]float64, len(tests)), make([]float64, len(tests))
		for j, test := range tests {
			c := ml.Evaluate(model, test)
			a[i][j], b[i][j] = fa(c), fb(c)
		}
	}
	return a, b
}

// recall and f1 score the attack class.
func recall(c ml.Confusion) float64 { return c.Recall(1) }
func f1(c ml.Confusion) float64     { return c.F1(1) }

// BuildCampusScenario assembles one campus's lab and labeled scenario:
// the local collection side of both the cross-campus experiment and the
// federated round (whose remote campuses stream the same generator
// over the ingest protocol instead of collecting in process).
func BuildCampusScenario(spec CampusSpec, target traffic.Label) (*Lab, traffic.Generator, error) {
	hosts, dur := orDefault(spec.HostsPerDept, 50), orDefault(spec.Duration, 4*time.Second)
	fps, rate := orDefault(spec.FlowsPerSecond, 60), orDefault(spec.AttackRate, 700)
	plan := traffic.DefaultPlan(hosts)
	lab, err := NewLab(Config{Name: spec.Name, Plan: plan, Shards: spec.Shards, Workers: spec.Workers})
	if err != nil {
		return nil, nil, err
	}
	benign := traffic.NewCampus(traffic.Profile{
		Plan: plan, FlowsPerSecond: fps, Duration: dur,
		Diurnal: true, StartHour: spec.StartHour, Seed: spec.Seed,
	})
	attack := traffic.NewAttack(traffic.AttackConfig{
		Kind: target, Plan: plan, Victim: plan.Host(int(spec.Seed) % plan.TotalHosts()),
		Start: dur / 5, Duration: dur / 2, Rate: rate, Seed: spec.Seed + 1,
	})
	return lab, traffic.NewMerge(benign, attack), nil
}

var (
	obsCoordRounds   = obs.Default.Counter("campuslab_fleet_coordinator_rounds_total")
	obsCoordCampuses = obs.Default.Gauge("campuslab_fleet_coordinator_campuses")
)

// FederatedResult is one federated round's output. All matrices are
// indexed [trainCampus][testCampus] in the caller's campus order; the
// Log is transition-ordered and contains no wall-clock content, so a
// round is byte-comparable across runs, fleet sizes, and transports.
type FederatedResult struct {
	Campuses []string
	// Recall[i][j] is campus i's forest recall on campus j's held-out
	// test traffic — the train-here/test-there generalization matrix.
	Recall   [][]float64
	Accuracy [][]float64
	// FederatedRecall[j] is the merged (vote-pooled) ensemble's recall
	// on campus j's test set; PooledRecall[j] is the pooled-feature
	// variant (one forest trained on the concatenated train splits).
	FederatedRecall   []float64
	FederatedAccuracy []float64
	PooledRecall      []float64
	PooledAccuracy    []float64
	// Merged is the federated ensemble; MergedBytes its canonical
	// serialized form (the determinism fingerprint input).
	Merged      *ml.Forest
	MergedBytes []byte
	// Log records the round's state transitions in execution order.
	Log []string
}

// RunFederated executes one Figure-2 development round across the fleet:
// the per-campus fit at every campus (campus i shuffles with Seed+i), the
// train-here/test-there matrix, and two sharing strategies evaluated on
// the same held-out splits — vote pooling (merge the forests) and feature
// pooling (one forest over the concatenated train splits). Deterministic
// for a fixed campus list and config at any worker count.
func RunFederated(campuses []Campus, cfg DevelopConfig) (*FederatedResult, error) {
	if len(campuses) == 0 {
		return nil, fmt.Errorf("core: federated round needs at least one campus")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	obsCoordRounds.Inc()
	obsCoordCampuses.Set(float64(len(campuses)))

	res := &FederatedResult{Campuses: make([]string, len(campuses))}
	logf := func(format string, args ...any) {
		res.Log = append(res.Log, fmt.Sprintf(format, args...))
	}
	logf("round start: %d campuses, target=%d, trees=%d, depth=%d",
		len(campuses), cfg.Target, cfg.ForestTrees, cfg.ForestDepth)

	forests := make([]*ml.Forest, len(campuses))
	tests := make([]*features.Dataset, len(campuses))
	pooledTrain := &features.Dataset{}
	for i, campus := range campuses {
		res.Campuses[i] = campus.Name
		fit, err := fitCampus(campus, cfg, int64(i))
		if err != nil {
			return nil, err
		}
		train, test := fit.train, fit.test
		logf("campus %s: %d examples (%d train / %d test, %d positive train)",
			campus.Name, train.Len()+test.Len(), train.Len(), test.Len(), train.ClassCounts()[1])
		if err := pooledTrain.Append(train); err != nil {
			return nil, fmt.Errorf("core: pooling campus %q: %w", campus.Name, err)
		}
		forests[i], tests[i] = fit.forest, test
		logf("campus %s: forest fitted (%d trees, %d nodes)",
			campus.Name, fit.forest.NumTrees(), fit.forest.TotalNodes())
	}

	res.Recall, res.Accuracy = evalMatrix(forests, tests, recall, ml.Confusion.Accuracy)
	for i := range forests {
		for j := range tests {
			logf("roadtest train=%s test=%s recall=%.6f accuracy=%.6f",
				res.Campuses[i], res.Campuses[j], res.Recall[i][j], res.Accuracy[i][j])
		}
	}

	// Vote pooling: merge every campus's forest into one ensemble.
	merged, err := ml.MergeForests(forests...)
	if err != nil {
		return nil, fmt.Errorf("core: merge: %w", err)
	}
	res.Merged = merged
	if res.MergedBytes, err = merged.MarshalBinary(); err != nil {
		return nil, fmt.Errorf("core: marshal merged: %w", err)
	}
	logf("federated ensemble: %d trees from %d campuses, %d bytes",
		merged.NumTrees(), len(campuses), len(res.MergedBytes))

	// Feature pooling: one forest over the concatenated train splits
	// (campus order, no re-shuffle — Append order is the spec).
	pooled, err := cfg.fitForest(pooledTrain)
	if err != nil {
		return nil, fmt.Errorf("core: pooled fit: %w", err)
	}

	r, a := evalMatrix([]*ml.Forest{merged, pooled}, tests, recall, ml.Confusion.Accuracy)
	res.FederatedRecall, res.PooledRecall = r[0], r[1]
	res.FederatedAccuracy, res.PooledAccuracy = a[0], a[1]
	for j := range tests {
		logf("federated test=%s recall=%.6f accuracy=%.6f pooled recall=%.6f accuracy=%.6f",
			res.Campuses[j], res.FederatedRecall[j], res.FederatedAccuracy[j],
			res.PooledRecall[j], res.PooledAccuracy[j])
	}
	logf("round complete")
	return res, nil
}
