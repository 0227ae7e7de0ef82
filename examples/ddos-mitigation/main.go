// DDoS mitigation end to end: the §2 worked example — "drop attack traffic
// on ingress if confidence in detection is at least 90%" — run on all
// three inference tiers, showing the latency/flexibility tradeoff Figure 2
// separates into the fast and slow loops.
package main

import (
	"fmt"
	"log"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/core"
	"campuslab/internal/ml"
	"campuslab/internal/traffic"
)

func main() {
	log.SetFlags(0)
	plan := traffic.DefaultPlan(50)
	lab, err := core.NewLab(core.Config{Name: "ddos-campus", Plan: plan})
	if err != nil {
		log.Fatal(err)
	}

	train := traffic.NewMerge(
		traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: 11}),
		traffic.NewAttack(traffic.AttackConfig{
			Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(3),
			Start: 600 * time.Millisecond, Duration: 3 * time.Second, Rate: 900, Seed: 12,
		}),
	)
	if _, err := lab.Collect(train); err != nil {
		log.Fatal(err)
	}
	dep, err := lab.Develop(core.DevelopConfig{Target: traffic.LabelDNSAmp, Seed: 13})
	if err != nil {
		log.Fatal(err)
	}

	replay := func() traffic.Generator {
		return traffic.NewMerge(
			traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 6 * time.Second, Seed: 14}),
			traffic.NewAttack(traffic.AttackConfig{
				Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(9),
				Start: time.Second, Duration: 4 * time.Second, Rate: 900, Seed: 15,
			}),
		)
	}

	fmt.Println("tier          recall   collateral  mitigation            inference(mean)")
	for _, tier := range []control.Tier{control.TierDataPlane, control.TierControlPlane, control.TierCloud} {
		cfg := control.LoopConfig{Tier: tier, Threshold: 0.9, Window: time.Second, MinEvidence: 30}
		var model ml.Classifier
		switch tier {
		case control.TierDataPlane:
			cfg.Program = dep.DropProgram
		case control.TierControlPlane:
			cfg.Program, model = dep.AlertProgram, dep.Extraction.Tree
		case control.TierCloud:
			cfg.Program, model = dep.AlertProgram, dep.BlackBox
		}
		cfg.Model = model
		loop, err := control.NewLoop(cfg)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := loop.Replay(replay())
		if err != nil {
			log.Fatal(err)
		}
		mitigation := "inline (first packet)"
		if tier != control.TierDataPlane {
			if len(stats.Mitigations) > 0 {
				m := stats.Mitigations[0]
				mitigation = fmt.Sprintf("%v after attack start", (m.InstalledAt - time.Second).Round(time.Millisecond))
			} else {
				mitigation = "none"
			}
		}
		infer := stats.InferMean
		if tier == control.TierDataPlane {
			infer = 100 * time.Nanosecond
		}
		fmt.Printf("%-13s %6.1f%%  %9.2f%%  %-21s %v\n",
			tier, 100*stats.DetectionRecall(), 100*stats.CollateralRate(), mitigation, infer)
	}
}
