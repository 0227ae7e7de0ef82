package roadtest

import (
	"strings"
	"testing"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/dataplane"
	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/netsim"
	"campuslab/internal/traffic"
	"campuslab/internal/xai"
)

// artifacts trains the deployable model chain once per test binary.
type artifacts struct {
	plan      *traffic.AddressPlan
	campus    *netsim.Topology
	tree      *ml.Tree
	dropProg  *dataplane.Program
	alertProg *dataplane.Program
}

var cached *artifacts

func train(t testing.TB) *artifacts {
	t.Helper()
	if cached != nil {
		return cached
	}
	plan := traffic.DefaultPlan(40)
	benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: 201})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(4),
		Start: 500 * time.Millisecond, Duration: 3 * time.Second, Rate: 800, Seed: 202,
	})
	st := datastore.New()
	g := traffic.NewMerge(benign, amp)
	var f traffic.Frame
	for g.Next(&f) {
		st.IngestFrame(&f)
	}
	ds := features.FromPackets(st, 1.0).BinaryRelabel(traffic.LabelDNSAmp)
	forest, err := ml.FitForest(ds, 2, ml.ForestConfig{Trees: 20, MaxDepth: 8, Seed: 203})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := xai.Extract(forest, ds, xai.ExtractConfig{MaxDepth: 4, Seed: 204})
	if err != nil {
		t.Fatal(err)
	}
	dropProg, err := dataplane.Compile(ex.Tree, features.PacketSchema, dataplane.CompileConfig{
		Name: "amp-drop", DropClasses: []int{1}, MinConfidence: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	alertProg, err := dataplane.Compile(ex.Tree, features.PacketSchema, dataplane.CompileConfig{Name: "amp-alert"})
	if err != nil {
		t.Fatal(err)
	}
	campus := netsim.BuildCampus(netsim.Config{Plan: plan, HostsPerAccess: 10})
	cached = &artifacts{plan: plan, campus: campus, tree: ex.Tree, dropProg: dropProg, alertProg: alertProg}
	return cached
}

func (a *artifacts) scenario(benignSeed, attackSeed int64, rate float64) traffic.Generator {
	benign := traffic.NewCampus(traffic.Profile{Plan: a.plan, FlowsPerSecond: 50, Duration: 5 * time.Second, Seed: benignSeed})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: a.plan, Victim: a.plan.Host(8),
		Start: time.Second, Duration: 3 * time.Second, Rate: rate, Seed: attackSeed,
	})
	return traffic.NewMerge(benign, amp)
}

func TestRoadTestInlinePasses(t *testing.T) {
	a := train(t)
	rep, err := Run(Config{
		Campus:   a.campus,
		Loop:     control.LoopConfig{Tier: control.TierDataPlane, Program: a.dropProg},
		Scenario: a.scenario(211, 212, 800),
		Spec:     Spec{MinRecall: 0.9, MaxCollateral: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("road test failed: %s", rep.Summary())
	}
	if rep.Reaction != 0 {
		t.Errorf("inline reaction = %v, want 0", rep.Reaction)
	}
	if rep.AttackStart < time.Second {
		t.Errorf("attack start = %v", rep.AttackStart)
	}
	if !strings.Contains(rep.Summary(), "PASS") {
		t.Errorf("summary = %q", rep.Summary())
	}
}

func TestRoadTestControlPlaneReaction(t *testing.T) {
	a := train(t)
	rep, err := Run(Config{
		Campus: a.campus,
		Loop: control.LoopConfig{
			Tier: control.TierControlPlane, Program: a.alertProg, Model: a.tree,
			Threshold: 0.9, Window: time.Second, MinEvidence: 30,
		},
		Scenario: a.scenario(213, 214, 800),
		Spec:     Spec{MinRecall: 0.5, MaxCollateral: 0.05, MaxReaction: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("road test failed: %s", rep.Summary())
	}
	if rep.Reaction <= 0 {
		t.Errorf("reaction = %v, want positive (detect-then-mitigate)", rep.Reaction)
	}
	if len(rep.Loop.Mitigations) == 0 {
		t.Error("no mitigations recorded")
	}
}

func TestRoadTestSpecViolationDetected(t *testing.T) {
	a := train(t)
	// Impossible spec: zero collateral tolerance AND sub-microsecond
	// reaction for a detect-then-mitigate tier.
	rep, err := Run(Config{
		Campus: a.campus,
		Loop: control.LoopConfig{
			Tier: control.TierCloud, Program: a.alertProg, Model: a.tree,
			Threshold: 0.9, MinEvidence: 30,
		},
		Scenario: a.scenario(215, 216, 800),
		Spec:     Spec{MinRecall: 0.9999, MaxCollateral: 0, MaxReaction: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatalf("impossible spec passed: %s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "FAIL") {
		t.Errorf("summary = %q", rep.Summary())
	}
}

func TestRoadTestValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("accepted missing scenario")
	}
	if _, err := Run(Config{Scenario: &frameSlice{}}); err == nil {
		t.Error("accepted missing campus")
	}
}

// badProgram drops all UDP — a deliberately harmful "model" whose canary
// must be rolled back.
func badProgram() *dataplane.Program {
	return &dataplane.Program{
		Name: "drop-all-udp",
		Rules: []dataplane.Rule{{
			Conds:  []dataplane.RangeCond{{Field: dataplane.FieldIsUDP, Lo: 1, Hi: 1}},
			Action: dataplane.ActionDrop, Class: 1, Confidence: 0.99,
		}},
		Default: dataplane.ActionPermit,
	}
}

func TestCanaryRollsBackBadModel(t *testing.T) {
	a := train(t)
	res, err := RunCanary(
		traffic.NewCampus(traffic.Profile{Plan: a.plan, FlowsPerSecond: 80, Duration: 4 * time.Second, Seed: 221}),
		CanaryConfig{
			Loop:           control.LoopConfig{Tier: control.TierDataPlane, Program: badProgram()},
			MaxBenignDrops: 50,
			Window:         50,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RolledBack {
		t.Fatal("harmful model was not rolled back")
	}
	if res.BenignDropsAtRollback < 50 {
		t.Errorf("rollback at %d drops, budget 50", res.BenignDropsAtRollback)
	}
	// The watchdog acts within one window of the budget being crossed:
	// realized harm stays bounded.
	if res.BenignDropsAtRollback > 50+50 {
		t.Errorf("harm %d escaped the watchdog window", res.BenignDropsAtRollback)
	}
	if res.RollbackAt <= 0 || res.RollbackAt > 4*time.Second {
		t.Errorf("rollback at %v", res.RollbackAt)
	}
}

func TestCanaryKeepsGoodModel(t *testing.T) {
	a := train(t)
	res, err := RunCanary(
		a.scenario(223, 224, 800),
		CanaryConfig{
			Loop:           control.LoopConfig{Tier: control.TierDataPlane, Program: a.dropProg},
			MaxBenignDrops: 200,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.RolledBack {
		t.Fatalf("good model rolled back: %d benign drops", res.BenignDropsAtRollback)
	}
	if res.Final.DetectionRecall() < 0.9 {
		t.Errorf("recall = %v", res.Final.DetectionRecall())
	}
}

func TestCanaryValidation(t *testing.T) {
	if _, err := RunCanary(nil, CanaryConfig{}); err == nil {
		t.Error("accepted empty loop config")
	}
}

// frameSlice replays a fixed slice of frames.
type frameSlice struct {
	frames []traffic.Frame
	i      int
}

func (g *frameSlice) Next(f *traffic.Frame) bool {
	if g.i == len(g.frames) {
		return false
	}
	*f = g.frames[g.i]
	g.i++
	return true
}

// BenchmarkRoadTest is one data-plane road test over a campus built once:
// loop set-up, a fresh network and the replay. frames/op is the episode
// length; allocs/op below it means nothing on the path allocates per
// frame.
func BenchmarkRoadTest(b *testing.B) {
	a := train(b)
	var frames []traffic.Frame
	gen := a.scenario(231, 232, 800)
	for f := (traffic.Frame{}); gen.Next(&f); {
		frames = append(frames, f)
	}
	cfg := Config{
		Campus: a.campus,
		Loop:   control.LoopConfig{Tier: control.TierDataPlane, Program: a.dropProg},
		Spec:   Spec{MinRecall: 0.9, MaxCollateral: 0.02},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Scenario = &frameSlice{frames: frames}
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(frames)), "frames/op")
}
