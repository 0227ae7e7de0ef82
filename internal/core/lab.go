// Package core is campuslab's public entry point: the Lab type operates a
// campus network "as a lab" exactly as the paper proposes — the same
// network is the data source (capture → privacy enforcement → data store →
// feature engineering) and the testbed (deploy → road-test), and the
// development loop of Figure 2 (store → black-box model → extracted
// deployable model → compiled switch program) is one method call.
package core

import (
	"fmt"
	"sync"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/dataplane"
	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/netsim"
	"campuslab/internal/privacy"
	"campuslab/internal/roadtest"
	"campuslab/internal/traffic"
	"campuslab/internal/xai"
)

// Config creates a Lab.
type Config struct {
	// Name identifies the campus (reports, cross-campus runs).
	Name string
	// Plan is the campus address layout (nil = DefaultPlan(200)).
	Plan *traffic.AddressPlan
	// Policy is the IT organization's collection policy. The zero value
	// stores everything unanonymized (internal-only store, §3).
	Policy privacy.Policy
	// Secret keys the anonymizer (required when Policy anonymizes).
	Secret []byte
	// Workers bounds offline-loop fan-out: sharded ingest, feature
	// extraction, and (as the Develop default) forest training.
	// 0 = GOMAXPROCS, 1 = serial; results are identical either way.
	Workers int
	// Shards fixes the data store's shard count (0 = auto-size from
	// GOMAXPROCS). Query results are identical at any shard count; the
	// knob exists for determinism tests and tuning.
	Shards int
	// Store, when non-nil, is adopted instead of creating a fresh store —
	// the continuous-operation path where labd recovers a durable store
	// (snapshot ⊕ WAL) before constructing the lab. Shards is ignored.
	Store *datastore.Store
}

// Lab is a campus network operated as data source and testbed.
type Lab struct {
	cfg      Config
	store    *datastore.Store
	enforcer *privacy.Enforcer

	campusOnce sync.Once
	campus     *netsim.Topology // the road-test campus, built on first use
}

// NewLab validates cfg and builds the lab.
func NewLab(cfg Config) (*Lab, error) {
	if cfg.Name == "" {
		cfg.Name = "campus"
	}
	if cfg.Plan == nil {
		cfg.Plan = traffic.DefaultPlan(200)
	}
	if cfg.Policy.Scope == privacy.AnonInternal && !cfg.Policy.CampusPrefix.IsValid() {
		cfg.Policy.CampusPrefix = cfg.Plan.CampusPrefix
	}
	secret := cfg.Secret
	if len(secret) == 0 {
		secret = []byte("campuslab-default-internal-key")
	}
	enf, err := privacy.NewEnforcer(cfg.Policy, secret)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	st := cfg.Store
	if st == nil {
		st = datastore.NewSharded(cfg.Shards)
	}
	return &Lab{cfg: cfg, store: st, enforcer: enf}, nil
}

// Name returns the campus name.
func (l *Lab) Name() string { return l.cfg.Name }

// Store exposes the data store for queries.
func (l *Lab) Store() *datastore.Store { return l.store }

// CollectStats summarizes one collection run.
type CollectStats struct {
	Frames     uint64
	Bytes      uint64
	StoreStats datastore.Stats
	// Stored / Shed split Frames by the store's admission gate: Stored
	// frames were acknowledged (and WAL-logged when durability is on);
	// Shed were dropped as low-priority under overload.
	Stored, Shed uint64
}

// collectBatch sizes the ingest batches Collect hands to the sharded
// store: large enough to amortize per-shard locking, small enough to keep
// memory flat while streaming long scenarios.
const collectBatch = 4096

// Collect runs a traffic stream through privacy enforcement into the data
// store — the "privacy-preserving data collection" arrow of Figure 1.
// Ground-truth labels ride along for flows the generator marks as attacks.
// Frames are ingested through the store's batched path so parsing and
// shard updates fan out across Workers.
func (l *Lab) Collect(gen traffic.Generator) (CollectStats, error) {
	var cs CollectStats
	var f traffic.Frame
	batch := make([]traffic.Frame, 0, collectBatch)
	flush := func() error {
		r, err := l.store.AddBatchAdmit(batch, l.cfg.Workers)
		cs.Stored += uint64(r.Ingested)
		cs.Shed += uint64(r.Shed)
		batch = batch[:0]
		return err
	}
	for gen.Next(&f) {
		out, err := l.enforcer.Apply(f.Data)
		if err != nil {
			// Unparseable frames are stored as-is; the store keeps the
			// "everything on the wire" contract.
			out = f.Data
		}
		stored := f
		stored.Data = out
		batch = append(batch, stored)
		if len(batch) == collectBatch {
			if err := flush(); err != nil {
				cs.StoreStats = l.store.Stats()
				return cs, fmt.Errorf("core: collect: %w", err)
			}
		}
		cs.Frames++
		cs.Bytes += uint64(len(out))
	}
	if err := flush(); err != nil {
		cs.StoreStats = l.store.Stats()
		return cs, fmt.Errorf("core: collect: %w", err)
	}
	cs.StoreStats = l.store.Stats()
	return cs, nil
}

// PacketDataset extracts the per-packet dataset (dataplane-compilable
// features) as a binary problem for the target attack class.
func (l *Lab) PacketDataset(target traffic.Label, benignKeep float64) *features.Dataset {
	return features.FromPackets(l.store, benignKeep).BinaryRelabel(target)
}

// DevelopConfig is Figure 2's slow loop as a recipe — the "open-sourced
// learning algorithm" every campus runs on its own data, not a trained
// model. Develop runs it on one lab, RunCrossCampus and RunFederated on
// many.
type DevelopConfig struct {
	// Target is the attack class the automation task detects.
	Target traffic.Label
	// ForestTrees/ForestDepth size the black-box model (defaults 30/10).
	ForestTrees, ForestDepth int
	// DeployDepth bounds the extracted deployable tree (default 4).
	DeployDepth int
	// Seed drives the entire loop deterministically.
	Seed int64
	// Workers bounds training fan-out (0 = GOMAXPROCS, or in Develop the
	// lab's Workers). Any value yields the identical result.
	Workers int
}

const (
	trainFrac     = 0.7 // each campus's train split; the rest is held out
	minConfidence = 0.9 // gates fast-path drops (the paper's 90% example)
	minExamples   = 10  // the smallest dataset a campus may learn from
)

// withDefaults checks Target and fills the zero sizes.
func (c DevelopConfig) withDefaults() (DevelopConfig, error) {
	if c.Target == traffic.LabelBenign {
		return c, fmt.Errorf("core: Target must be an attack class")
	}
	c.ForestTrees, c.ForestDepth = orDefault(c.ForestTrees, 30), orDefault(c.ForestDepth, 10)
	c.DeployDepth = orDefault(c.DeployDepth, 4)
	return c, nil
}

// orDefault is v, or def when v is not positive.
func orDefault[T int | float64 | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// fitForest trains the black box on train.
func (c DevelopConfig) fitForest(train *features.Dataset) (*ml.Forest, error) {
	return ml.FitForest(train, 2, ml.ForestConfig{
		Trees: c.ForestTrees, MaxDepth: c.ForestDepth, Seed: c.Seed, Workers: c.Workers,
	})
}

// campusFit is one campus's pass through the first half of the slow loop.
type campusFit struct {
	train, test *features.Dataset
	forest      *ml.Forest
}

// fitCampus is the per-campus fit every entry point shares: the campus's
// dataset, checked → Shuffle(cfg.Seed+k) → 70/30 split → black-box
// forest. Develop passes k = 0, RunCrossCampus the campus's scenario seed
// and RunFederated the campus's index.
func fitCampus(c Campus, cfg DevelopConfig, k int64) (*campusFit, error) {
	var ds *features.Dataset
	switch {
	case c.Features != nil:
		ds = c.Features()
	case c.Store == nil:
		return nil, fmt.Errorf("core: campus %q has no store", c.Name)
	default:
		ds = features.FromPackets(c.Store, 1).BinaryRelabel(cfg.Target)
	}
	if ds.Len() < minExamples {
		return nil, fmt.Errorf("core: campus %q has %d examples (need >=%d)", c.Name, ds.Len(), minExamples)
	}
	if ds.ClassCounts()[1] == 0 {
		return nil, fmt.Errorf("core: campus %q has no %v examples", c.Name, cfg.Target)
	}
	ds.Shuffle(cfg.Seed + k)
	train, test := ds.Split(trainFrac)
	forest, err := cfg.fitForest(train)
	if err != nil {
		return nil, fmt.Errorf("core: campus %q fit: %w", c.Name, err)
	}
	return &campusFit{train, test, forest}, nil
}

// extract distills the campus's forest into the deployable tree.
func (f *campusFit) extract(cfg DevelopConfig) (*xai.Extraction, error) {
	return xai.Extract(f.forest, f.train, xai.ExtractConfig{MaxDepth: cfg.DeployDepth, Seed: cfg.Seed + 1})
}

// Deployment is the development loop's output: every artifact of Figure 2.
type Deployment struct {
	// BlackBox is the offline model (slow loop).
	BlackBox *ml.Forest
	// Extraction is the deployable model plus its fidelity.
	Extraction *xai.Extraction
	// DropProgram drops attack traffic inline (dataplane tier).
	DropProgram *dataplane.Program
	// AlertProgram only alerts — for detect-then-mitigate tiers.
	AlertProgram *dataplane.Program
	// Rules is the operator-facing rule listing (road-map step iv).
	Rules []string
	// TrainAccuracy/TestAccuracy of the deployable model on held-out data.
	TrainAccuracy, TestAccuracy float64
	// BlackBoxTestAccuracy for the accuracy-cost-of-explainability gap.
	BlackBoxTestAccuracy float64
}

// Develop runs the full slow loop against the data store: featurize →
// train black box → extract deployable model → compile both program
// variants → report accuracies and rules.
func (l *Lab) Develop(cfg DevelopConfig) (*Deployment, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = l.cfg.Workers
	}
	fit, err := fitCampus(Campus{Name: l.cfg.Name, Store: l.store}, cfg, 0)
	if err != nil {
		return nil, err
	}
	ex, err := fit.extract(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: extracting deployable model: %w", err)
	}
	dropProg, err := dataplane.Compile(ex.Tree, features.PacketSchema, dataplane.CompileConfig{
		Name:        fmt.Sprintf("%s-%v-drop", l.cfg.Name, cfg.Target),
		DropClasses: []int{1}, MinConfidence: minConfidence,
	})
	if err != nil {
		return nil, fmt.Errorf("core: compiling drop program: %w", err)
	}
	alertProg, err := dataplane.Compile(ex.Tree, features.PacketSchema, dataplane.CompileConfig{
		Name: fmt.Sprintf("%s-%v-alert", l.cfg.Name, cfg.Target),
	})
	if err != nil {
		return nil, fmt.Errorf("core: compiling alert program: %w", err)
	}
	classNames := func(c int) string {
		if c == 1 {
			return cfg.Target.String()
		}
		return "benign"
	}
	return &Deployment{
		BlackBox:             fit.forest,
		Extraction:           ex,
		DropProgram:          dropProg,
		AlertProgram:         alertProg,
		Rules:                xai.RuleSet(ex.Tree, features.PacketSchema, classNames),
		TrainAccuracy:        ml.Evaluate(ex.Tree, fit.train).Accuracy(),
		TestAccuracy:         ml.Evaluate(ex.Tree, fit.test).Accuracy(),
		BlackBoxTestAccuracy: ml.Evaluate(fit.forest, fit.test).Accuracy(),
	}, nil
}

// roadCampus returns the lab's simulated campus, built on first use from
// the lab's plan and shared, read-only, by every road test.
func (l *Lab) roadCampus() *netsim.Topology {
	l.campusOnce.Do(func() {
		l.campus = netsim.BuildCampus(netsim.Config{Plan: l.cfg.Plan, HostsPerAccess: 25})
	})
	return l.campus
}

// RoadTest deploys the deployable model on a fresh network over the lab's
// campus and replays a held-out scenario through it (Figure 1, right
// half). Road tests of one lab may run concurrently.
func (l *Lab) RoadTest(dep *Deployment, tier control.Tier, scenario traffic.Generator, spec roadtest.Spec) (*roadtest.Report, error) {
	loopCfg := control.LoopConfig{Tier: tier, Threshold: 0.9, Window: time.Second, MinEvidence: 30}
	switch tier {
	case control.TierDataPlane:
		loopCfg.Program = dep.DropProgram
	case control.TierControlPlane:
		loopCfg.Program = dep.AlertProgram
		loopCfg.Model = dep.Extraction.Tree
	case control.TierCloud:
		loopCfg.Program = dep.AlertProgram
		loopCfg.Model = dep.BlackBox
	default:
		return nil, fmt.Errorf("core: unknown tier %v", tier)
	}
	return roadtest.Run(roadtest.Config{
		Campus:   l.roadCampus(),
		Loop:     loopCfg,
		Scenario: scenario,
		Spec:     spec,
	})
}
