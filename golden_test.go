// Golden determinism test (DESIGN.md §10): the full develop → deploy →
// road-test loop must produce byte-identical outputs regardless of the
// store's shard count or the offline loop's worker fan-out. The
// fingerprint covers the learned models (rules, compiled programs,
// accuracies, probability surfaces), the road-test report, and the
// deltas of the deterministic operational metrics — so a concurrency bug
// that silently drops or double-counts work fails this test even when
// the model happens to come out the same.
package campuslab_test

import (
	"crypto/sha256"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/core"
	"campuslab/internal/features"
	"campuslab/internal/fleet"
	"campuslab/internal/obs"
	"campuslab/internal/roadtest"
	"campuslab/internal/traffic"
)

// goldenSeries whitelists the metric families whose values are fully
// determined by the replayed scenario (virtual-clock event counts).
// Timing families (stage nanos), contention counters, and merge-read
// counts legitimately vary with scheduling and are excluded.
var goldenSeries = map[string]bool{
	"campuslab_store_ingest_packets_total":        true,
	"campuslab_store_ingest_batches_total":        true,
	"campuslab_dataplane_verdicts_total":          true,
	"campuslab_dataplane_filter_hits_total":       true,
	"campuslab_control_escalations_total":         true,
	"campuslab_control_mitigations_total":         true,
	"campuslab_control_install_retries_total":     true,
	"campuslab_control_dropped_mitigations_total": true,
	"campuslab_control_install_failures_total":    true,
	"campuslab_control_infer_failures_total":      true,
	"campuslab_control_fallback_inferences_total": true,
	"campuslab_control_breaker_transitions_total": true,
	"campuslab_stage_calls_total":                 true,
}

// metricsSample reads the whitelisted series into key → value.
func metricsSample() map[string]float64 {
	out := make(map[string]float64)
	for name := range goldenSeries {
		for _, s := range obs.Default.SeriesByName(name) {
			key := s.Name
			if len(s.Labels) > 0 {
				parts := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
				}
				key += "{" + strings.Join(parts, ",") + "}"
			}
			out[key] = s.Value
		}
	}
	return out
}

// runGolden executes one full loop and returns its fingerprint.
func runGolden(t *testing.T, shards, workers int) string {
	t.Helper()
	before := metricsSample()

	plan := traffic.DefaultPlan(40)
	lab, err := core.NewLab(core.Config{Name: "golden", Plan: plan, Workers: workers, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: 7})
	attack := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(5),
		Start: 600 * time.Millisecond, Duration: 3 * time.Second, Rate: 800, Seed: 8,
	})
	if _, err := lab.Collect(traffic.NewMerge(benign, attack)); err != nil {
		t.Fatal(err)
	}
	dep, err := lab.Develop(core.DevelopConfig{Target: traffic.LabelDNSAmp, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	var fp strings.Builder
	fmt.Fprintf(&fp, "blackbox: trees=%d nodes=%d acc=%.9f\n",
		dep.BlackBox.NumTrees(), dep.BlackBox.TotalNodes(), dep.BlackBoxTestAccuracy)
	fmt.Fprintf(&fp, "deployable: depth=%d nodes=%d fidelity=%.9f train=%.9f test=%.9f\n",
		dep.Extraction.Tree.Depth(), dep.Extraction.Tree.NumNodes(),
		dep.Extraction.Fidelity, dep.TrainAccuracy, dep.TestAccuracy)
	for _, r := range dep.Rules {
		fp.WriteString("rule: " + r + "\n")
	}
	fmt.Fprintf(&fp, "drop: rules=%d tcam=%d\n", len(dep.DropProgram.Rules), dep.DropProgram.TCAMCost())
	for i := range dep.DropProgram.Rules {
		fp.WriteString("drop-rule: " + dep.DropProgram.Rules[i].String() + "\n")
	}
	fmt.Fprintf(&fp, "alert: rules=%d tcam=%d\n", len(dep.AlertProgram.Rules), dep.AlertProgram.TCAMCost())

	// Probability surface: the two models evaluated on a deterministic
	// probe grid. Catches nondeterministic training that tree counts and
	// accuracies round away.
	dim := len(features.PacketSchema)
	x := make([]float64, dim)
	for i := 0; i < 8; i++ {
		for j := range x {
			x[j] = float64((i*31+j*17)%100) / 10
		}
		fmt.Fprintf(&fp, "proba[%d]: bb=%.9v tree=%.9v\n", i, dep.BlackBox.Proba(x), dep.Extraction.Tree.Proba(x))
	}

	heldB := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 3 * time.Second, Seed: 10})
	heldA := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(6),
		Start: 500 * time.Millisecond, Duration: 2 * time.Second, Rate: 800, Seed: 11,
	})
	rep, err := lab.RoadTest(dep, control.TierControlPlane, traffic.NewMerge(heldB, heldA),
		roadtest.Spec{MinRecall: 0.5, MaxCollateral: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	fp.WriteString("roadtest: " + rep.Summary() + "\n")

	// Operational metric deltas for this run. The registry is process
	//-global, so diff against the sample taken before the run.
	after := metricsSample()
	keys := make([]string, 0, len(after))
	for k := range after {
		keys = append(keys, k)
	}
	// Sorted for a stable fingerprint (Snapshot is sorted, but the map
	// round-trip loses order).
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for _, k := range keys {
		fmt.Fprintf(&fp, "metric: %s +%g\n", k, after[k]-before[k])
	}
	return fp.String()
}

func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full develop loop; skipped in -short")
	}
	serial := runGolden(t, 1, 1)
	parallel := runGolden(t, 4, 4)
	if serial != parallel {
		t.Errorf("(shards=1,workers=1) and (shards=4,workers=4) fingerprints diverge:\n--- serial ---\n%s\n--- parallel ---\n%s\ndiff at: %s",
			serial, parallel, firstDiff(serial, parallel))
	}
	if !strings.Contains(serial, "roadtest: ") || !strings.Contains(serial, "metric: ") {
		t.Fatalf("fingerprint incomplete:\n%s", serial)
	}
}

// fleetFingerprint runs one federated development round over three small
// campus scenarios and flattens everything it produced — the full
// train-here/test-there recall and accuracy matrices, the federated and
// pooled rows, the serialized merged ensemble, and the coordinator's
// transition log — into one comparable string. Values are printed at
// shortest-exact precision so a single differing bit anywhere fails.
func fleetFingerprint(t *testing.T, tcp bool, shards, workers int) string {
	t.Helper()
	specs := []core.CampusSpec{
		{Name: "ucsb", HostsPerDept: 15, FlowsPerSecond: 30, AttackRate: 400, StartHour: 14, Seed: 901},
		{Name: "princeton", HostsPerDept: 20, FlowsPerSecond: 40, AttackRate: 250, StartHour: 17, Seed: 902},
		{Name: "columbia", HostsPerDept: 12, FlowsPerSecond: 25, AttackRate: 500, StartHour: 17, Seed: 903},
	}
	campuses := make([]core.Campus, len(specs))
	for i, spec := range specs {
		spec.Shards, spec.Workers = shards, workers
		lab, gen, err := core.BuildCampusScenario(spec, traffic.LabelPortScan)
		if err != nil {
			t.Fatal(err)
		}
		if tcp {
			srv, err := fleet.NewServer(fleet.ServerConfig{Store: lab.Store(), Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			cl, err := fleet.DialCampus(fleet.ClientConfig{Addr: ln.Addr().String(), Campus: spec.Name})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Stream(gen, 0); err != nil {
				t.Fatal(err)
			}
			cl.Close()
			ln.Close()
			srv.Close()
		} else if _, err := lab.Collect(gen); err != nil {
			t.Fatal(err)
		}
		campuses[i] = core.Campus{Name: spec.Name, Store: lab.Store()}
	}

	res, err := core.RunFederated(campuses, core.DevelopConfig{
		Target: traffic.LabelPortScan, ForestTrees: 6, ForestDepth: 6, Seed: 904, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fp strings.Builder
	for i := range res.Campuses {
		for j := range res.Campuses {
			fmt.Fprintf(&fp, "roadtest %s->%s: recall=%v accuracy=%v\n",
				res.Campuses[i], res.Campuses[j], res.Recall[i][j], res.Accuracy[i][j])
		}
	}
	for j := range res.Campuses {
		fmt.Fprintf(&fp, "federated @%s: recall=%v accuracy=%v pooled recall=%v accuracy=%v\n",
			res.Campuses[j], res.FederatedRecall[j], res.FederatedAccuracy[j],
			res.PooledRecall[j], res.PooledAccuracy[j])
	}
	fmt.Fprintf(&fp, "merged: trees=%d bytes=%d sha256=%x\n",
		res.Merged.NumTrees(), len(res.MergedBytes), sha256.Sum256(res.MergedBytes))
	for _, line := range res.Log {
		fp.WriteString("log: " + line + "\n")
	}
	return fp.String()
}

// TestGoldenFleetDeterminism pins the tentpole's core claim: a federated
// round's entire output is byte-identical whether the fleet is one
// process ingesting locally or three campuses streaming over loopback
// TCP, and whatever the store shard count or worker fan-out. 8 configs,
// 1 fingerprint.
func TestGoldenFleetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("8 federated rounds; skipped in -short")
	}
	var ref, refName string
	for _, tcp := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("tcp=%v,shards=%d,workers=%d", tcp, shards, workers)
				fp := fleetFingerprint(t, tcp, shards, workers)
				if ref == "" {
					ref, refName = fp, name
					continue
				}
				if fp != ref {
					t.Errorf("fleet fingerprint (%s) diverges from (%s)\ndiff at: %s",
						name, refName, firstDiff(ref, fp))
				}
			}
		}
	}
	if !strings.Contains(ref, "log: round complete") || !strings.Contains(ref, "merged: trees=18") {
		t.Fatalf("fleet fingerprint incomplete:\n%s", ref)
	}
	// The configurations agreeing with each other says nothing about a
	// change that moves all of them alike; the in-process, one-shard,
	// one-worker fingerprint is also pinned.
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(ref))); got != pinnedFleetFingerprint {
		t.Errorf("fleet fingerprint (%s) sha256 = %s, pinned %s:\n%s", refName, got, pinnedFleetFingerprint, ref)
	}
}

// pinnedFleetFingerprint is the sha256 of fleetFingerprint(t, false, 1, 1).
const pinnedFleetFingerprint = "5a3e4d0f15b16a2eda13f9a508487b5be1abab558bf6df29dc420204becfa055"

// firstDiff locates the first line where two fingerprints diverge.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}
