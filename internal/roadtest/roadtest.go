// Package roadtest is the testbed half of Figure 1: it deploys a
// deployable model at the simulated campus border, replays held-out
// benign+attack traffic through the network, and measures what an operator
// would demand to know before production rollout — detection recall,
// benign collateral, reaction time — plus a canary deployment mode that
// rolls a misbehaving model back before it exceeds its harm budget (§4's
// answer to "operators are extremely averse to deploying untested tools").
package roadtest

import (
	"fmt"
	"strings"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/netsim"
	"campuslab/internal/obs"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// Spec is the operator's acceptance contract for a road test.
type Spec struct {
	// MinRecall is the required fraction of attack packets mitigated.
	MinRecall float64
	// MaxCollateral is the tolerated fraction of benign packets dropped.
	MaxCollateral float64
	// MaxReaction bounds attack-start-to-mitigation latency (0 = any).
	MaxReaction time.Duration
}

// Report is the outcome of one road test.
type Report struct {
	Loop    control.LoopStats
	Network netsim.SimStats
	// AttackStart is the ground-truth first attack packet time.
	AttackStart time.Duration
	// Reaction is AttackStart to first mitigation install (0 if inline
	// or no mitigation needed; -1 if mitigation never happened).
	Reaction time.Duration
	// Violations lists failed spec clauses (empty = pass).
	Violations []string
}

// Passed reports whether the deployment met the spec.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// Summary renders a one-paragraph operator report.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "recall=%.3f collateral=%.4f reaction=%v inline=%d filter=%d escalated=%d",
		r.Loop.DetectionRecall(), r.Loop.CollateralRate(), r.Reaction,
		r.Loop.InlineDrops, r.Loop.FilterDrops, r.Loop.Escalations)
	if r.Passed() {
		sb.WriteString(" PASS")
	} else {
		fmt.Fprintf(&sb, " FAIL[%s]", strings.Join(r.Violations, "; "))
	}
	return sb.String()
}

// Config assembles a road test.
type Config struct {
	// Campus is the simulated campus the loop is deployed on (required).
	// A run only reads it, so one topology serves any number of runs,
	// concurrent ones included.
	Campus *netsim.Topology
	// Loop configures the deployed control loop.
	Loop control.LoopConfig
	// Scenario generates the replay traffic (benign + attack episodes).
	Scenario traffic.Generator
	// Spec is the acceptance contract.
	Spec Spec
}

// Run deploys the loop at the border of a fresh network over the campus
// and replays the scenario through it.
func Run(cfg Config) (*Report, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("roadtest: Scenario is required")
	}
	if cfg.Campus == nil {
		return nil, fmt.Errorf("roadtest: Campus is required")
	}
	loop, err := control.NewLoop(cfg.Loop)
	if err != nil {
		return nil, fmt.Errorf("roadtest: %w", err)
	}
	net := netsim.NewNetwork(cfg.Campus)

	rep := &Report{AttackStart: -1}
	net.SetBorderBatchFunc(func(ts []time.Duration, frames []*traffic.Frame, sums []*packet.Summary, keep []bool) {
		if rep.AttackStart < 0 {
			for i, f := range frames {
				if f.Label != traffic.LabelBenign {
					rep.AttackStart = ts[i]
					break
				}
			}
		}
		loop.FeedBatch(frames, sums, keep)
	})
	rep.Network = net.Replay(cfg.Scenario)
	rep.Loop = loop.Finish()

	rep.Reaction = -1
	if len(rep.Loop.Mitigations) > 0 && rep.AttackStart >= 0 {
		rep.Reaction = rep.Loop.Mitigations[0].InstalledAt - rep.AttackStart
	} else if rep.Loop.InlineDrops > 0 {
		rep.Reaction = 0 // inline mitigation: immediate
	}
	rep.Violations = checkSpec(cfg.Spec, rep)
	if rep.Passed() {
		obs.Default.Counter("campuslab_roadtest_runs_total", "result", "pass").Inc()
	} else {
		obs.Default.Counter("campuslab_roadtest_runs_total", "result", "fail").Inc()
	}
	return rep, nil
}

func checkSpec(spec Spec, rep *Report) []string {
	var v []string
	if spec.MinRecall > 0 && rep.Loop.DetectionRecall() < spec.MinRecall {
		v = append(v, fmt.Sprintf("recall %.3f < %.3f", rep.Loop.DetectionRecall(), spec.MinRecall))
	}
	if rep.Loop.CollateralRate() > spec.MaxCollateral {
		v = append(v, fmt.Sprintf("collateral %.4f > %.4f", rep.Loop.CollateralRate(), spec.MaxCollateral))
	}
	if spec.MaxReaction > 0 {
		if rep.Reaction < 0 {
			v = append(v, "no mitigation occurred")
		} else if rep.Reaction > spec.MaxReaction {
			v = append(v, fmt.Sprintf("reaction %v > %v", rep.Reaction, spec.MaxReaction))
		}
	}
	return v
}
