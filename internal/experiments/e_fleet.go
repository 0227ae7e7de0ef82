package experiments

import (
	"fmt"

	"campuslab/internal/core"
	"campuslab/internal/traffic"
)

// e18FleetFederation runs the federated development round
// (core.RunFederated) across three campus profiles and tabulates the
// train-here/test-there recall matrix against the two sharing
// strategies: vote pooling (merge every campus's forest) and feature
// pooling (train one forest on the concatenated train splits). The
// diagonal is each campus's home recall; off-diagonal cells show the
// generalization gap a model pays when road-tested on another campus's
// traffic, and the federated rows show how much of that gap sharing
// recovers without moving raw data.
func e18FleetFederation() (*Table, error) {
	specs := []core.CampusSpec{
		{Name: "ucsb", HostsPerDept: 30, FlowsPerSecond: 50, AttackRate: 500, StartHour: 14, Seed: 1801},
		{Name: "princeton", HostsPerDept: 45, FlowsPerSecond: 70, AttackRate: 300, StartHour: 17, Seed: 1802},
		{Name: "columbia", HostsPerDept: 25, FlowsPerSecond: 40, AttackRate: 800, StartHour: 17, Seed: 1803},
	}
	campuses := make([]core.Campus, len(specs))
	for i, spec := range specs {
		spec.Workers = workers()
		lab, gen, err := core.BuildCampusScenario(spec, traffic.LabelPortScan)
		if err != nil {
			return nil, fmt.Errorf("campus %s: %w", spec.Name, err)
		}
		if _, err := lab.Collect(gen); err != nil {
			return nil, fmt.Errorf("campus %s: %w", spec.Name, err)
		}
		campuses[i] = core.Campus{Name: spec.Name, Store: lab.Store()}
	}
	res, err := core.RunFederated(campuses, core.DevelopConfig{
		Target: traffic.LabelPortScan, ForestTrees: 12, ForestDepth: 8, Seed: 1804, Workers: workers(),
	})
	if err != nil {
		return nil, err
	}

	tb := &Table{
		ID:    "E18",
		Title: "multi-campus fleet: train-here/test-there vs federated recall",
		Columns: append([]string{"model \\ test campus"},
			res.Campuses...),
	}
	for i, name := range res.Campuses {
		row := []string{"trained @ " + name}
		for j := range res.Campuses {
			row = append(row, pct(res.Recall[i][j]))
		}
		tb.addRow(row...)
	}
	fed := []string{"federated (vote-pooled)"}
	pooled := []string{"pooled features"}
	for j := range res.Campuses {
		fed = append(fed, pct(res.FederatedRecall[j]))
		pooled = append(pooled, pct(res.PooledRecall[j]))
	}
	tb.addRow(fed...)
	tb.addRow(pooled...)

	// The contrast the table exists for: the worst single-campus model's
	// average recall vs the federated ensemble's worst-case cell.
	weakest, fedMin := 1.0, 1.0
	var weakestName string
	for i := range res.Campuses {
		var avg float64
		for j := range res.Campuses {
			avg += res.Recall[i][j]
		}
		avg /= float64(len(res.Campuses))
		if avg < weakest {
			weakest, weakestName = avg, res.Campuses[i]
		}
		if res.FederatedRecall[i] < fedMin {
			fedMin = res.FederatedRecall[i]
		}
	}
	tb.Notes = append(tb.Notes,
		fmt.Sprintf("the weakest single-campus model (%s, the low-intensity campus) averages %s recall; the vote-pooled federated ensemble holds >=%s on every campus — sharing models, not raw data, closes the gap", weakestName, pct(weakest), pct(fedMin)),
		fmt.Sprintf("federated ensemble: %d trees, %s serialized — the only artifact that crosses campus boundaries", res.Merged.NumTrees(), fmtBytes(uint64(len(res.MergedBytes)))),
		"identical tables at any fleet size, shard count, or worker count; the TCP-streamed variant in golden_test.go is byte-identical to this in-process run",
	)
	return tb, nil
}
