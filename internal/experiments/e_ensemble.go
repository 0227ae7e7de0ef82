package experiments

import (
	"fmt"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/dataplane"
	"campuslab/internal/features"
	"campuslab/internal/traffic"
)

// e15EnsembleFrontier measures the accuracy-vs-resources frontier of
// whole-ensemble compilation (Homunculus-style): the black-box forest
// lowered into per-tree decision DAGs plus a vote stage under shrinking
// hardware budgets, against the extracted single tree and control-plane
// forest inference — each with its tier's latency envelope.
func e15EnsembleFrontier() (*Table, error) {
	fx := newFixture()
	_, dep, err := fx.developedLab()
	if err != nil {
		return nil, err
	}
	forest, tree := dep.BlackBox, dep.Extraction.Tree

	// Held-out labeled episode: summaries for the switch paths, the same
	// packet-feature view as float vectors for the control-plane model,
	// binary ground truth from the generator labels.
	frames := traffic.Collect(fx.replayScenario(1501, 1502), 4000)
	fp := newFlowParser()
	var (
		sums   []summaryT
		X      [][]float64
		labels []int
	)
	for i := range frames {
		var s summaryT
		if err := fp.Parse(frames[i].Data, &s); err != nil {
			continue
		}
		x := make([]float64, len(features.PacketSchema))
		features.PacketVector(&s, x)
		sums = append(sums, s)
		X = append(X, x)
		cls := 0
		if frames[i].Label != traffic.LabelBenign {
			cls = 1
		}
		labels = append(labels, cls)
	}

	t := &Table{
		ID:    "E15",
		Title: "ensemble-in-dataplane frontier: accuracy vs hardware budget vs tier latency",
		Columns: []string{"deployment", "mode", "trees", "nodes", "entries", "stages",
			"accuracy", "ns/pkt", "tier_latency"},
	}

	accuracyOf := func(pred func(i int) int) float64 {
		ok := 0
		for i := range labels {
			p := pred(i)
			if p != 0 {
				p = 1
			}
			if p == labels[i] {
				ok++
			}
		}
		return float64(ok) / float64(len(labels))
	}

	// measureSwitch replays the eval set through a switch and returns the
	// verdicts plus mean per-packet wall time.
	measureSwitch := func(sw *dataplane.Switch) ([]dataplane.Verdict, time.Duration) {
		const reps = 20
		out := make([]dataplane.Verdict, 0, len(sums))
		start := time.Now()
		for r := 0; r < reps; r++ {
			out = sw.ProcessBatchAt(nil, sums, out[:0])
		}
		return out, time.Since(start) / time.Duration(reps*len(sums))
	}

	dpLatency := fmtDur(100 * time.Nanosecond) // pipeline latency model (E2)

	// Budget sweep over the same forest: roomy (exact), squeezed (pruned),
	// starved (fallback to the extracted tree).
	exact, err := dataplane.CompileForestEnsemble(forest, packetSchema(), dataplane.EnsembleConfig{
		Name: "e15-exact", DropClasses: []int{1}, MinConfidence: 0.9,
	})
	if err != nil {
		return nil, err
	}
	squeezedBudget := dataplane.ResourceBudget{Nodes: exact.Usage().Nodes / 3}
	sweep := []struct {
		label  string
		budget dataplane.ResourceBudget
	}{
		{"ensemble-dag (roomy budget)", dataplane.ResourceBudget{}},
		{fmt.Sprintf("ensemble-dag (%d-node budget)", squeezedBudget.Nodes), squeezedBudget},
		{"ensemble-dag (2-tree budget)", dataplane.ResourceBudget{Trees: 2}},
	}
	for _, sc := range sweep {
		ep, err := dataplane.CompileForestEnsemble(forest, packetSchema(), dataplane.EnsembleConfig{
			Name: "e15", DropClasses: []int{1}, MinConfidence: 0.9, Budget: sc.budget, Fallback: tree,
		})
		if err != nil {
			return nil, err
		}
		sw := dataplane.NewSwitch(dataplane.DefaultResources())
		if err := sw.LoadEnsemble(ep); err != nil {
			return nil, err
		}
		u, _ := sw.EnsembleInfo()
		verdicts, perPkt := measureSwitch(sw)
		acc := accuracyOf(func(i int) int { return verdicts[i].Class })
		t.addRow(sc.label, u.Mode.String(), fmt.Sprintf("%d", u.Trees),
			fmt.Sprintf("%d", u.Nodes), fmt.Sprintf("%d", u.TableEntries),
			fmt.Sprintf("%d", u.Stages), pct(acc),
			fmt.Sprintf("%d", perPkt.Nanoseconds()), dpLatency)
	}

	// Extracted single tree as a compiled rule program — the pre-ensemble
	// deployment this PR's tentpole moves beyond.
	sw := dataplane.NewSwitch(dataplane.DefaultResources())
	if err := sw.Load(dep.DropProgram); err != nil {
		return nil, err
	}
	verdicts, perPkt := measureSwitch(sw)
	acc := accuracyOf(func(i int) int { return verdicts[i].Class })
	t.addRow("extracted-tree dag", "-", "1", "-", "-", "-",
		pct(acc), fmt.Sprintf("%d", perPkt.Nanoseconds()), dpLatency)

	// Control-plane forest inference: same model, per-packet PredictBatch
	// cost plus the control-plane tier's latency envelope.
	const reps = 5
	start := time.Now()
	var preds []int
	for r := 0; r < reps; r++ {
		preds = forest.PredictBatch(X, workers())
	}
	cpPerPkt := time.Since(start) / time.Duration(reps*len(X))
	acc = accuracyOf(func(i int) int { return preds[i] })
	cpModel := control.DefaultTierModels()[control.TierControlPlane]
	t.addRow("controlplane forest", "-", fmt.Sprintf("%d", forest.NumTrees()), "-", "-", "-",
		pct(acc), fmt.Sprintf("%d", cpPerPkt.Nanoseconds()), fmtDur(cpModel.RTT+cpModel.Service))

	// Close the loop: the TierDataPlane ensemble mode end to end (batched
	// ClassifyBatch path) vs the extracted-tree drop program.
	for _, lc := range []struct {
		label string
		cfg   control.LoopConfig
	}{
		{"ensemble", control.LoopConfig{Tier: control.TierDataPlane, Ensemble: exact}},
		{"extracted-tree", control.LoopConfig{Tier: control.TierDataPlane, Program: dep.DropProgram}},
	} {
		loop, err := control.NewLoop(lc.cfg)
		if err != nil {
			return nil, err
		}
		stats, err := loop.Replay(fx.replayScenario(1501, 1502))
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"dataplane-tier loop (%s): recall %s, collateral %s over the held-out episode",
			lc.label, pct(stats.DetectionRecall()), pct(stats.CollateralRate())))
	}
	t.Notes = append(t.Notes,
		"expected shape: the exact ensemble matches control-plane forest accuracy at data-plane latency; shrinking budgets degrade gracefully (pruned, then the extracted tree) with accuracy stepping down, not failing; per-packet inference is cheapest on the compiled paths and the control plane pays its RTT on top")
	return t, nil
}
