package control

import (
	"testing"
	"time"

	"campuslab/internal/dataplane"
	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
	"campuslab/internal/xai"
)

// pipeline holds the trained artifacts shared by control-loop tests.
type pipeline struct {
	plan      *traffic.AddressPlan
	forest    *ml.Forest
	tree      *ml.Tree
	dropProg  *dataplane.Program
	alertProg *dataplane.Program
}

// buildPipeline trains the full chain once: scenario -> store -> packet
// features -> forest -> extracted tree -> compiled programs.
func buildPipeline(t testing.TB) *pipeline {
	t.Helper()
	plan := traffic.DefaultPlan(40)
	benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: 91})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(3),
		Start: 500 * time.Millisecond, Duration: 3 * time.Second, Rate: 900, Seed: 92,
	})
	st := datastore.New()
	g := traffic.NewMerge(benign, amp)
	var f traffic.Frame
	for g.Next(&f) {
		st.IngestFrame(&f)
	}
	ds := features.FromPackets(st, 1.0).BinaryRelabel(traffic.LabelDNSAmp)
	forest, err := ml.FitForest(ds, 2, ml.ForestConfig{Trees: 20, MaxDepth: 8, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := xai.Extract(forest, ds, xai.ExtractConfig{MaxDepth: 4, Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	dropProg, err := dataplane.Compile(ex.Tree, features.PacketSchema, dataplane.CompileConfig{
		Name: "amp-drop", DropClasses: []int{1}, MinConfidence: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	alertProg, err := dataplane.Compile(ex.Tree, features.PacketSchema, dataplane.CompileConfig{
		Name: "amp-alert", // no DropClasses: attack rules become alerts
	})
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline{plan: plan, forest: forest, tree: ex.Tree, dropProg: dropProg, alertProg: alertProg}
}

// attackScenario returns a fresh replay generator (same seeds as training
// scenario shape but different seed values — a held-out episode).
func (p *pipeline) attackScenario(benignSeed, attackSeed int64) traffic.Generator {
	benign := traffic.NewCampus(traffic.Profile{Plan: p.plan, FlowsPerSecond: 60, Duration: 5 * time.Second, Seed: benignSeed})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: p.plan, Victim: p.plan.Host(7),
		Start: time.Second, Duration: 3 * time.Second, Rate: 900, Seed: attackSeed,
	})
	return traffic.NewMerge(benign, amp)
}

func TestDataPlaneTierDropsInline(t *testing.T) {
	p := buildPipeline(t)
	loop, err := NewLoop(LoopConfig{Tier: TierDataPlane, Program: p.dropProg})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := loop.Replay(p.attackScenario(101, 102))
	if err != nil {
		t.Fatal(err)
	}
	if stats.DetectionRecall() < 0.9 {
		t.Errorf("inline recall = %v", stats.DetectionRecall())
	}
	if stats.CollateralRate() > 0.02 {
		t.Errorf("collateral = %v", stats.CollateralRate())
	}
	if stats.InlineDrops == 0 || stats.FilterDrops != 0 {
		t.Errorf("drops = inline %d / filter %d; dataplane tier should drop inline", stats.InlineDrops, stats.FilterDrops)
	}
	if stats.Escalations != 0 {
		t.Errorf("dataplane tier escalated %d packets", stats.Escalations)
	}
}

func TestControlPlaneTierMitigates(t *testing.T) {
	p := buildPipeline(t)
	loop, err := NewLoop(LoopConfig{
		Tier: TierControlPlane, Program: p.alertProg, Model: p.tree,
		Threshold: 0.9, Window: time.Second, MinEvidence: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := loop.Replay(p.attackScenario(103, 104))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Mitigations) == 0 {
		t.Fatal("no mitigation installed")
	}
	m := stats.Mitigations[0]
	if m.Victim != p.plan.Host(7) {
		t.Errorf("mitigated %v, want victim %v", m.Victim, p.plan.Host(7))
	}
	if m.Confidence < 0.9 {
		t.Errorf("confidence = %v", m.Confidence)
	}
	// Attack starts at 1s; mitigation should land shortly after.
	if m.InstalledAt < time.Second || m.InstalledAt > 3*time.Second {
		t.Errorf("mitigation at %v", m.InstalledAt)
	}
	if stats.FilterDrops == 0 {
		t.Error("installed filter dropped nothing")
	}
	if stats.DetectionRecall() < 0.5 {
		t.Errorf("recall = %v (detect-then-mitigate should still catch most of a 3s attack)", stats.DetectionRecall())
	}
	if stats.Escalations == 0 {
		t.Error("no escalations on alert tier")
	}
}

func TestCloudTierSlowerThanControlPlane(t *testing.T) {
	p := buildPipeline(t)
	run := func(tier Tier, model ml.Classifier) LoopStats {
		loop, err := NewLoop(LoopConfig{
			Tier: tier, Program: p.alertProg, Model: model,
			Threshold: 0.9, Window: time.Second, MinEvidence: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := loop.Replay(p.attackScenario(105, 106))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	cp := run(TierControlPlane, p.tree)
	cl := run(TierCloud, p.forest)
	if len(cp.Mitigations) == 0 || len(cl.Mitigations) == 0 {
		t.Fatal("a tier failed to mitigate")
	}
	if cl.InferMean <= cp.InferMean {
		t.Errorf("cloud inference latency %v <= control plane %v", cl.InferMean, cp.InferMean)
	}
	if cl.Mitigations[0].InstalledAt < cp.Mitigations[0].InstalledAt {
		t.Errorf("cloud mitigated earlier (%v) than control plane (%v)",
			cl.Mitigations[0].InstalledAt, cp.Mitigations[0].InstalledAt)
	}
}

func TestCapacityQueueingGrowsLatency(t *testing.T) {
	eng := newInferenceEngine(TierModel{RTT: time.Millisecond, Service: 10 * time.Microsecond, CapacityPPS: 1000})
	// Offer 10k requests in one virtual second: 10x over capacity.
	var last time.Duration
	for i := 0; i < 10000; i++ {
		last = eng.submit(time.Duration(i) * 100 * time.Microsecond)
	}
	n, mean, max := eng.latencyStats()
	if n != 10000 {
		t.Fatalf("n = %d", n)
	}
	if mean < 10*time.Millisecond {
		t.Errorf("mean latency %v too low for 10x overload", mean)
	}
	if max < mean {
		t.Error("max < mean")
	}
	if last < 9*time.Second {
		t.Errorf("last verdict at %v; 10k requests at 1k/s should take ~10s", last)
	}
}

func TestUncongestedEngineLatencyIsRTTPlusService(t *testing.T) {
	eng := newInferenceEngine(TierModel{RTT: 2 * time.Millisecond, Service: 100 * time.Microsecond, CapacityPPS: 1_000_000})
	done := eng.submit(time.Second)
	want := time.Second + 2*time.Millisecond + 100*time.Microsecond
	// Allow the capacity spacing term.
	if done < want || done > want+10*time.Microsecond {
		t.Errorf("done = %v, want ~%v", done, want)
	}
}

func TestNewLoopValidation(t *testing.T) {
	if _, err := NewLoop(LoopConfig{}); err == nil {
		t.Error("accepted nil program")
	}
	prog := &dataplane.Program{Name: "x", Default: dataplane.ActionPermit}
	if _, err := NewLoop(LoopConfig{Tier: TierCloud, Program: prog}); err == nil {
		t.Error("accepted cloud tier without model")
	}
	if _, err := NewLoop(LoopConfig{Tier: TierDataPlane, Program: prog}); err != nil {
		t.Errorf("dataplane tier needs no model: %v", err)
	}
}

func TestTierNames(t *testing.T) {
	if TierDataPlane.String() != "dataplane" || TierCloud.String() != "cloud" {
		t.Error("tier names wrong")
	}
}

// BenchmarkLoopFeedDataplane times the data-plane tier's fast loop: feed is
// one frame per op through the rule program, FeedBatch one ReplayBatch of
// frames per op through the compiled ensemble (divide ns/op by 256 for
// the per-frame cost). Both must stay at 0 allocs/op.
func BenchmarkLoopFeedDataplane(b *testing.B) {
	p := buildPipeline(b)
	frames := traffic.Collect(p.attackScenario(107, 108), 5000)
	fp := newParser()
	summaries := parseAll(b, fp, frames)
	b.Run("feed", func(b *testing.B) {
		loop, err := NewLoop(LoopConfig{Tier: TierDataPlane, Program: p.dropProg})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(frames)
			loop.feed(&frames[j], &summaries[j])
		}
	})
	b.Run("FeedBatch/ensemble", func(b *testing.B) {
		ens, err := dataplane.CompileForestEnsemble(p.forest, features.PacketSchema, dataplane.EnsembleConfig{DropClasses: []int{1}})
		if err != nil {
			b.Fatal(err)
		}
		loop, err := NewLoop(LoopConfig{Tier: TierDataPlane, Program: p.dropProg, Ensemble: ens})
		if err != nil {
			b.Fatal(err)
		}
		batches := len(frames) / ReplayBatch
		fptrs := make([]*traffic.Frame, batches*ReplayBatch)
		sptrs := make([]*packet.Summary, len(fptrs))
		for i := range fptrs {
			fptrs[i], sptrs[i] = &frames[i], &summaries[i]
		}
		keep := make([]bool, ReplayBatch)
		loop.FeedBatch(fptrs[:ReplayBatch], sptrs[:ReplayBatch], keep) // sizes the verdict buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := i % batches * ReplayBatch
			loop.FeedBatch(fptrs[lo:lo+ReplayBatch], sptrs[lo:lo+ReplayBatch], keep)
		}
	})
}
