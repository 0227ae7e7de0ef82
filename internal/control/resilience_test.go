package control

import (
	"testing"
	"time"

	"campuslab/internal/faults"
)

func TestBreakerTripAndRecovery(t *testing.T) {
	b := breaker{cfg: BreakerConfig{Trip: 3, Cooldown: time.Second}}
	if !b.allow(0) {
		t.Fatal("fresh breaker should be closed")
	}
	b.failure(0)
	b.failure(0)
	if !b.allow(0) {
		t.Fatal("below threshold should stay closed")
	}
	b.failure(0) // third consecutive: trips
	if b.allow(100 * time.Millisecond) {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if b.trips != 1 {
		t.Fatalf("trips = %d", b.trips)
	}
	// Cooldown elapsed: half-open admits one probe.
	if !b.allow(time.Second) {
		t.Fatal("half-open breaker rejected the probe")
	}
	// A failed probe re-opens immediately.
	b.failure(time.Second)
	if b.allow(time.Second + 500*time.Millisecond) {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if b.trips != 2 {
		t.Fatalf("trips = %d", b.trips)
	}
	// A successful probe closes it for good.
	if !b.allow(3 * time.Second) {
		t.Fatal("second half-open rejected")
	}
	b.success()
	b.failure(3 * time.Second)
	if !b.allow(3 * time.Second) {
		t.Fatal("one failure after recovery should not re-trip")
	}
}

// controlPlaneCfg builds the standard detect-then-mitigate config used by
// the resilience tests.
func controlPlaneCfg(p *pipeline) LoopConfig {
	return LoopConfig{
		Tier: TierControlPlane, Program: p.alertProg, Model: p.tree,
		Threshold: 0.9, Window: time.Second, MinEvidence: 30,
	}
}

func TestReactRetriesTransientInstallFaults(t *testing.T) {
	p := buildPipeline(t)

	healthy, err := NewLoop(controlPlaneCfg(p))
	if err != nil {
		t.Fatal(err)
	}
	base, err := healthy.Replay(p.attackScenario(501, 502))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Mitigations) == 0 {
		t.Fatal("healthy baseline did not mitigate")
	}

	cfg := controlPlaneCfg(p)
	cfg.Faults = faults.NewSchedule().FailCalls(faults.OpInstall, 1, 2)
	faulty, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := faulty.Replay(p.attackScenario(501, 502))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Mitigations) == 0 {
		t.Fatal("transient install faults defeated the mitigation entirely")
	}
	if stats.InstallRetries != 2 {
		t.Errorf("InstallRetries = %d, want 2", stats.InstallRetries)
	}
	if stats.DroppedMitigations != 0 {
		t.Errorf("DroppedMitigations = %d, want 0", stats.DroppedMitigations)
	}
	// Two retries at 2ms/4ms backoff: install lands at least 6ms later
	// than the healthy run, but under the full backoff + jitter ceiling.
	delay := stats.Mitigations[0].InstalledAt - base.Mitigations[0].InstalledAt
	if delay < 6*time.Millisecond {
		t.Errorf("install delay %v, want >= 6ms of backoff", delay)
	}
	if delay > 50*time.Millisecond {
		t.Errorf("install delay %v unreasonably large", delay)
	}
	if stats.Mitigations[0].Victim != base.Mitigations[0].Victim {
		t.Error("faulty run mitigated a different victim")
	}
}

func TestReactRetryBudgetExhaustedThenRecovers(t *testing.T) {
	p := buildPipeline(t)
	cfg := controlPlaneCfg(p)
	// First mitigation decision burns its whole 4-attempt budget; the
	// evidence keeps accumulating and a later verdict retries with a
	// healthy install path.
	cfg.Faults = faults.NewSchedule().FailCalls(faults.OpInstall, 1, 4)
	loop, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := loop.Replay(p.attackScenario(503, 504))
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedMitigations != 1 {
		t.Errorf("DroppedMitigations = %d, want 1", stats.DroppedMitigations)
	}
	if stats.InstallRetries != 3 {
		t.Errorf("InstallRetries = %d, want 3 (attempts 2-4 of the burned budget)", stats.InstallRetries)
	}
	if len(stats.Mitigations) == 0 {
		t.Fatal("loop never recovered after the exhausted retry budget")
	}
	if stats.DetectionRecall() < 0.5 {
		t.Errorf("recall = %v after recovery", stats.DetectionRecall())
	}
}

func TestBreakerTripsToFallbackTier(t *testing.T) {
	p := buildPipeline(t)
	cfg := controlPlaneCfg(p)
	// The control-plane tier fails every inference; the loop must trip
	// its breaker and degrade to the cloud tier (higher RTT, same task).
	cfg.Faults = faults.NewSchedule().FailCalls(faults.OpInfer("controlplane"), 1, 1<<40)
	cfg.Fallbacks = []FallbackTier{{Tier: TierCloud, Model: p.forest}}
	loop, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := loop.Replay(p.attackScenario(505, 506))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BreakerTrips == 0 {
		t.Error("control-plane breaker never tripped")
	}
	if stats.FallbackInferences == 0 {
		t.Error("no inferences served by the fallback tier")
	}
	if len(stats.Mitigations) == 0 {
		t.Fatal("degraded loop failed to mitigate")
	}
	if stats.Mitigations[0].Victim != p.plan.Host(7) {
		t.Errorf("degraded loop mitigated %v, want %v", stats.Mitigations[0].Victim, p.plan.Host(7))
	}
	// The cloud's 40ms RTT must show up in the verdict latency.
	if stats.InferMean < 10*time.Millisecond {
		t.Errorf("InferMean %v does not reflect cloud fallback latency", stats.InferMean)
	}
}

func TestDataplaneDegradesToControlPlane(t *testing.T) {
	p := buildPipeline(t)
	// Healthy inline baseline for comparison.
	healthy, err := NewLoop(LoopConfig{Tier: TierDataPlane, Program: p.dropProg})
	if err != nil {
		t.Fatal(err)
	}
	base, err := healthy.Replay(p.attackScenario(507, 508))
	if err != nil {
		t.Fatal(err)
	}

	cfg := LoopConfig{
		Tier: TierDataPlane, Program: p.dropProg,
		Threshold: 0.9, Window: time.Second, MinEvidence: 30,
		Faults:    faults.NewSchedule().FailCalls(faults.OpInfer("dataplane"), 1, 1<<40),
		Breaker:   BreakerConfig{Trip: 5, Cooldown: 30 * time.Second},
		Fallbacks: []FallbackTier{{Tier: TierControlPlane, Model: p.tree}},
	}
	loop, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := loop.Replay(p.attackScenario(507, 508))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BreakerTrips == 0 {
		t.Fatal("data-plane breaker never tripped")
	}
	if stats.FallbackInferences == 0 {
		t.Fatal("no control-plane fallback inferences")
	}
	if len(stats.Mitigations) == 0 {
		t.Fatal("degraded loop never installed a mitigation")
	}
	if stats.Mitigations[0].Victim != p.plan.Host(7) {
		t.Errorf("wrong victim %v", stats.Mitigations[0].Victim)
	}
	if stats.FilterDrops == 0 {
		t.Error("installed mitigation dropped nothing")
	}
	// Degradation is graceful, not free: recall below the inline
	// baseline but the attack is still substantially mitigated.
	if stats.DetectionRecall() < 0.5 {
		t.Errorf("degraded recall = %v", stats.DetectionRecall())
	}
	if stats.DetectionRecall() > base.DetectionRecall() {
		t.Errorf("degraded recall %v beats healthy inline %v?", stats.DetectionRecall(), base.DetectionRecall())
	}
	if stats.CollateralRate() > 0.02 {
		t.Errorf("degraded collateral = %v", stats.CollateralRate())
	}
}

func TestAllTiersDownLosesVerdictsSafely(t *testing.T) {
	p := buildPipeline(t)
	cfg := controlPlaneCfg(p)
	// No fallback: when the only tier is down, verdicts are lost and the
	// loop must fail open (no mitigations, no drops, no panic).
	cfg.Faults = faults.NewSchedule().FailCalls(faults.OpInfer("controlplane"), 1, 1<<40)
	cfg.Breaker = BreakerConfig{Trip: 5, Cooldown: 30 * time.Second}
	loop, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := loop.Replay(p.attackScenario(509, 510))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Mitigations) != 0 {
		t.Error("mitigation installed with no working inference tier")
	}
	if stats.BenignDropped != 0 {
		t.Error("fail-open loop dropped benign traffic")
	}
	if stats.InferFailures == 0 {
		t.Error("lost inferences not accounted")
	}
}

func TestFallbackValidation(t *testing.T) {
	p := buildPipeline(t)
	cfg := controlPlaneCfg(p)
	cfg.Fallbacks = []FallbackTier{{Tier: TierDataPlane}}
	if _, err := NewLoop(cfg); err == nil {
		t.Error("accepted the data plane as a fallback inference tier")
	}
	cfg.Fallbacks = []FallbackTier{{Tier: TierCloud}}
	if _, err := NewLoop(cfg); err == nil {
		t.Error("accepted a model-less fallback tier")
	}
}

func TestHealthyLoopWithFallbackChainMatchesPlain(t *testing.T) {
	p := buildPipeline(t)
	run := func(withFallback bool) LoopStats {
		cfg := controlPlaneCfg(p)
		if withFallback {
			cfg.Fallbacks = []FallbackTier{{Tier: TierCloud, Model: p.forest}}
		}
		loop, err := NewLoop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := loop.Replay(p.attackScenario(511, 512))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	plain, chained := run(false), run(true)
	if chained.FallbackInferences != 0 || chained.BreakerTrips != 0 {
		t.Error("healthy run exercised the fallback chain")
	}
	if plain.Escalations != chained.Escalations ||
		plain.FilterDrops != chained.FilterDrops ||
		plain.InferMean != chained.InferMean ||
		len(plain.Mitigations) != len(chained.Mitigations) {
		t.Errorf("fallback chain changed healthy behavior: %+v vs %+v", plain, chained)
	}
}
