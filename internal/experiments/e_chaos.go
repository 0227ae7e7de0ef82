package experiments

import (
	"fmt"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/faults"
)

// e14ChaosLoop replays the E5 DNS-amplification episode under injected
// faults — transient install failures, a full install outage, and a
// data-plane inference blackout that trips the circuit breaker — and
// measures what §4's operator actually cares about: does the loop still
// mitigate the right victim, how much later, and at what collateral cost.
// All fault schedules are seeded and deterministic; the healthy rows are
// byte-identical to a run with no injector at all.
func e14ChaosLoop() (*Table, error) {
	fx := newFixture()
	_, dep, err := fx.developedLab()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E14",
		Title:   "chaos road test: DNS-amp mitigation under injected faults",
		Columns: []string{"scenario", "recall", "collateral", "reaction", "retries", "breaker_trips", "fallback_inf", "dropped_mitig", "false_victims", "verdict"},
	}
	victim := fx.plan.Host(9) // replayScenario's attack target

	cpCfg := func() control.LoopConfig {
		return control.LoopConfig{
			Tier: control.TierControlPlane, Program: dep.AlertProgram,
			Model: dep.Extraction.Tree, Threshold: 0.9, Window: time.Second, MinEvidence: 30,
		}
	}
	run := func(name string, cfg control.LoopConfig) (control.LoopStats, error) {
		loop, err := control.NewLoop(cfg)
		if err != nil {
			return control.LoopStats{}, fmt.Errorf("%s: %w", name, err)
		}
		stats, err := loop.Replay(fx.replayScenario(1401, 1402))
		if err != nil {
			return control.LoopStats{}, fmt.Errorf("%s: %w", name, err)
		}
		reaction := "never"
		if len(stats.Mitigations) > 0 {
			reaction = fmtDur(stats.Mitigations[0].InstalledAt - time.Second)
		} else if cfg.Tier == control.TierDataPlane && len(cfg.Fallbacks) == 0 {
			reaction = "0 (inline)"
		}
		falseVictims := 0
		for _, m := range stats.Mitigations {
			if m.Victim != victim {
				falseVictims++
			}
		}
		verdict := "PASS"
		switch {
		case falseVictims > 0:
			verdict = fmt.Sprintf("FAIL: %d false victims", falseVictims)
		case len(stats.Mitigations) == 0 && cfg.Tier != control.TierDataPlane:
			verdict = "FAIL: never mitigated"
		}
		t.addRow(name, pct(stats.DetectionRecall()), pct(stats.CollateralRate()), reaction,
			fmt.Sprintf("%d", stats.InstallRetries), fmt.Sprintf("%d", stats.BreakerTrips),
			fmt.Sprintf("%d", stats.FallbackInferences), fmt.Sprintf("%d", stats.DroppedMitigations),
			fmt.Sprintf("%d", falseVictims), verdict)
		return stats, nil
	}

	// Healthy detect-then-mitigate baseline: every chaos row below is read
	// against this one.
	healthy, err := run("healthy (control plane)", cpCfg())
	if err != nil {
		return nil, err
	}

	// A transient blip: the first two install attempts fail; the retry
	// loop (exponential backoff + jitter, 4 attempts) must absorb them.
	cfg := cpCfg()
	cfg.Faults = faults.NewSchedule().FailCalls(faults.OpInstall, 1, 2, faults.KindTransient)
	flaky, err := run("transient install blip (2 failures)", cfg)
	if err != nil {
		return nil, err
	}

	// A scripted outage eats the first mitigation's whole retry budget; the
	// loop must drop that mitigation, keep accumulating evidence, and land
	// the next one.
	cfg = cpCfg()
	cfg.Faults = faults.NewSchedule().FailCalls(faults.OpInstall, 1, 4, faults.KindTransient)
	if _, err := run("install outage (retry budget burned)", cfg); err != nil {
		return nil, err
	}

	// Healthy inline baseline for the breaker scenario.
	inline := control.LoopConfig{Tier: control.TierDataPlane, Program: dep.DropProgram}
	if _, err := run("healthy (dataplane inline)", inline); err != nil {
		return nil, err
	}

	// The acceptance scenario: the data plane's inference path blacks out
	// (breaker trips) AND the install channel is flaky — a guaranteed
	// first-attempt failure plus a 12% transient rate on every attempt.
	// The loop must degrade to the control-plane tier, retry through the
	// flaky installs, and still mitigate only the true victim.
	chaos := control.LoopConfig{
		Tier: control.TierDataPlane, Program: dep.DropProgram,
		Threshold: 0.9, Window: time.Second, MinEvidence: 30,
		Faults: faults.Chain{
			faults.NewSchedule().
				FailCalls(faults.OpInfer("dataplane"), 1, 1<<40, faults.KindTransient).
				FailCalls(faults.OpInstall, 1, 1, faults.KindTransient),
			faults.NewProb(1404).Rate(faults.OpInstall, 0.12, 0),
		},
		Breaker:   control.BreakerConfig{Trip: 5, Cooldown: 30 * time.Second},
		Fallbacks: []control.FallbackTier{{Tier: control.TierControlPlane, Model: dep.Extraction.Tree}},
	}
	broken, err := run("dataplane blackout -> CP fallback + 12% install faults", chaos)
	if err != nil {
		return nil, err
	}

	if len(healthy.Mitigations) > 0 && len(flaky.Mitigations) > 0 {
		h := healthy.Mitigations[0].InstalledAt - time.Second
		f := flaky.Mitigations[0].InstalledAt - time.Second
		t.Notes = append(t.Notes, fmt.Sprintf(
			"time-to-mitigation inflation under the 2-failure install blip: %s -> %s (%.2fx), bounded by the retry policy's backoff ceiling",
			fmtDur(h), fmtDur(f), float64(f)/float64(h)))
	}
	if broken.BreakerTrips == 0 {
		t.Notes = append(t.Notes, "WARNING: dataplane breaker never tripped — chaos scenario did not exercise the fallback path")
	}
	t.Notes = append(t.Notes,
		"expected shape: transient install faults cost milliseconds (retries), not mitigations; a burned retry budget costs one mitigation but the evidence loop recovers; a data-plane inference blackout degrades recall to roughly the control-plane tier's detect-then-mitigate level with zero false victims — graceful degradation, not collapse")
	return t, nil
}
