package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/datastore"
	"campuslab/internal/obs"
	"campuslab/internal/privacy"
	"campuslab/internal/roadtest"
	"campuslab/internal/traffic"
)

// scenario builds a labeled benign+attack stream on the lab's plan.
func scenario(l *Lab, benignSeed, attackSeed int64) traffic.Generator {
	benign := traffic.NewCampus(traffic.Profile{
		Plan: l.cfg.Plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: benignSeed,
	})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: l.cfg.Plan, Victim: l.cfg.Plan.Host(6),
		Start: 800 * time.Millisecond, Duration: 2500 * time.Millisecond, Rate: 800, Seed: attackSeed,
	})
	return traffic.NewMerge(benign, amp)
}

func newLab(t testing.TB) *Lab {
	t.Helper()
	lab, err := NewLab(Config{Name: "ucsb-sim", Plan: traffic.DefaultPlan(40)})
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestCollectPopulatesStore(t *testing.T) {
	lab := newLab(t)
	cs, err := lab.Collect(scenario(lab, 301, 302))
	if err != nil {
		t.Fatal(err)
	}
	if cs.Frames == 0 || cs.Bytes == 0 {
		t.Fatal("nothing collected")
	}
	if cs.StoreStats.Packets != cs.Frames {
		t.Errorf("store packets %d != frames %d", cs.StoreStats.Packets, cs.Frames)
	}
	counts := lab.Store().LabelCounts()
	if counts[traffic.LabelDNSAmp] == 0 {
		t.Error("attack labels missing after collection")
	}
}

func TestCollectWithAnonymizationStillLearns(t *testing.T) {
	lab, err := NewLab(Config{
		Name: "anon-campus", Plan: traffic.DefaultPlan(40),
		Policy: privacy.Policy{Scope: privacy.AnonAll},
		Secret: []byte("it-org-secret"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Collect(scenario(lab, 303, 304)); err != nil {
		t.Fatal(err)
	}
	dep, err := lab.Develop(DevelopConfig{Target: traffic.LabelDNSAmp, Seed: 305})
	if err != nil {
		t.Fatal(err)
	}
	// Anonymization preserves everything the packet features use, so the
	// model should be as good as ever.
	if dep.TestAccuracy < 0.95 {
		t.Errorf("test accuracy on anonymized store = %v", dep.TestAccuracy)
	}
}

func TestDevelopProducesAllArtifacts(t *testing.T) {
	lab := newLab(t)
	if _, err := lab.Collect(scenario(lab, 306, 307)); err != nil {
		t.Fatal(err)
	}
	dep, err := lab.Develop(DevelopConfig{Target: traffic.LabelDNSAmp, Seed: 308})
	if err != nil {
		t.Fatal(err)
	}
	if dep.BlackBox == nil || dep.Extraction == nil || dep.DropProgram == nil || dep.AlertProgram == nil {
		t.Fatal("missing artifacts")
	}
	if dep.Extraction.Fidelity < 0.9 {
		t.Errorf("fidelity = %v", dep.Extraction.Fidelity)
	}
	if dep.TestAccuracy < 0.9 {
		t.Errorf("deployable test accuracy = %v", dep.TestAccuracy)
	}
	if dep.BlackBoxTestAccuracy < dep.TestAccuracy-0.05 {
		// black box should be at least comparable
		t.Errorf("black box %v much worse than extracted %v", dep.BlackBoxTestAccuracy, dep.TestAccuracy)
	}
	if len(dep.Rules) == 0 {
		t.Fatal("no operator rules")
	}
	for _, r := range dep.Rules {
		if !strings.Contains(r, "IF ") {
			t.Errorf("malformed rule %q", r)
		}
	}
	// The drop program must be strictly smaller than the black box in
	// the sense that matters for a switch.
	if dep.DropProgram.TCAMCost() <= 0 {
		t.Error("drop program has no rules")
	}
}

// TestDevelopRecordsEachStage: one Develop is one span per stage of
// Figure 2's slow loop — featurize, train and extract once each, compile
// once per program variant — read as deltas of the stage-call counters.
func TestDevelopRecordsEachStage(t *testing.T) {
	lab := newLab(t)
	if _, err := lab.Collect(scenario(lab, 350, 351)); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"featurize": 1, "train": 1, "extract": 1, "compile": 2}
	calls := func() map[string]uint64 {
		got := make(map[string]uint64, len(want))
		for stage := range want {
			got[stage] = obs.Default.Counter("campuslab_stage_calls_total", "stage", stage).Value()
		}
		return got
	}
	before := calls()
	if _, err := lab.Develop(DevelopConfig{Target: traffic.LabelDNSAmp, Seed: 352}); err != nil {
		t.Fatal(err)
	}
	after := calls()
	for stage, n := range want {
		if d := after[stage] - before[stage]; d != n {
			t.Errorf("stage %q recorded %d calls in one Develop, want %d", stage, d, n)
		}
	}
}

func TestDevelopValidation(t *testing.T) {
	lab := newLab(t)
	if _, err := lab.Develop(DevelopConfig{Target: traffic.LabelBenign}); err == nil {
		t.Error("accepted benign target")
	}
	if _, err := lab.Develop(DevelopConfig{Target: traffic.LabelDNSAmp}); err == nil {
		t.Error("developed from an empty store")
	}
	// Store with benign only: no positives.
	benign := traffic.NewCampus(traffic.Profile{Plan: lab.cfg.Plan, FlowsPerSecond: 30, Duration: time.Second, Seed: 309})
	if _, err := lab.Collect(benign); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Develop(DevelopConfig{Target: traffic.LabelDNSAmp}); err == nil {
		t.Error("developed with no positive examples")
	}
}

func TestDevelopThenRoadTest(t *testing.T) {
	lab := newLab(t)
	if _, err := lab.Collect(scenario(lab, 310, 311)); err != nil {
		t.Fatal(err)
	}
	dep, err := lab.Develop(DevelopConfig{Target: traffic.LabelDNSAmp, Seed: 312})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.RoadTest(dep, control.TierDataPlane, scenario(lab, 313, 314),
		roadtest.Spec{MinRecall: 0.9, MaxCollateral: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("road test failed: %s", rep.Summary())
	}
}

// TestConcurrentRoadTestsShareCampus road-tests one lab from two
// goroutines before its campus exists, then runs the same two road tests
// one after the other: the campus is built once and only read, so the
// concurrent reports equal the serial ones.
func TestConcurrentRoadTestsShareCampus(t *testing.T) {
	lab := newLab(t)
	if _, err := lab.Collect(scenario(lab, 316, 317)); err != nil {
		t.Fatal(err)
	}
	// A small forest and short episodes: this runs in the race pass.
	dep, err := lab.Develop(DevelopConfig{Target: traffic.LabelDNSAmp, Seed: 318, ForestTrees: 5, ForestDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	episode := func(seed int64) traffic.Generator {
		return traffic.NewMerge(
			traffic.NewCampus(traffic.Profile{Plan: lab.cfg.Plan, FlowsPerSecond: 40, Duration: time.Second, Seed: seed}),
			traffic.NewAttack(traffic.AttackConfig{
				Kind: traffic.LabelDNSAmp, Plan: lab.cfg.Plan, Victim: lab.cfg.Plan.Host(6),
				Start: 200 * time.Millisecond, Duration: 600 * time.Millisecond, Rate: 800, Seed: seed + 1,
			}))
	}
	tiers := [2]control.Tier{control.TierDataPlane, control.TierControlPlane}
	run := func(i int) (string, error) {
		rep, err := lab.RoadTest(dep, tiers[i], episode(320+2*int64(i)),
			roadtest.Spec{MinRecall: 0.5, MaxCollateral: 0.05})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s\n%+v\n%+v", rep.Summary(), rep.Network, rep.Loop), nil
	}
	var concurrent [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range tiers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i], errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for i := range tiers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		serial, err := run(i)
		if err != nil {
			t.Fatal(err)
		}
		if concurrent[i] != serial {
			t.Fatalf("%v: concurrent road test differs from the serial one:\n%s\nvs\n%s", tiers[i], concurrent[i], serial)
		}
	}
}

func TestCrossCampusReproducibility(t *testing.T) {
	specs := []CampusSpec{
		{Name: "ucsb", HostsPerDept: 30, FlowsPerSecond: 50, AttackRate: 700, StartHour: 14, Seed: 316},
		{Name: "princeton", HostsPerDept: 45, FlowsPerSecond: 70, AttackRate: 500, StartHour: 17, Seed: 317},
		{Name: "columbia", HostsPerDept: 25, FlowsPerSecond: 40, AttackRate: 900, StartHour: 17, Seed: 318},
	}
	res, err := RunCrossCampus(specs, DevelopConfig{Target: traffic.LabelDNSAmp, Seed: 319})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campuses) != 3 || len(res.Accuracy) != 3 {
		t.Fatalf("matrix shape wrong: %+v", res.Campuses)
	}
	// Self-accuracy must be high everywhere; transfer should hold up
	// (the signature is structural, not campus-specific).
	for i := range res.Accuracy {
		if res.Accuracy[i][i] < 0.9 {
			t.Errorf("campus %s self accuracy = %v", res.Campuses[i], res.Accuracy[i][i])
		}
		if res.Fidelity[i] < 0.85 {
			t.Errorf("campus %s fidelity = %v", res.Campuses[i], res.Fidelity[i])
		}
		for j := range res.Accuracy[i] {
			if res.Accuracy[i][j] < 0.5 {
				t.Errorf("transfer %s->%s accuracy = %v", res.Campuses[i], res.Campuses[j], res.Accuracy[i][j])
			}
		}
	}
	if res.DiagonalMean() <= 0 || res.OffDiagonalMean() <= 0 {
		t.Error("means not computed")
	}
}

func TestCrossCampusValidation(t *testing.T) {
	if _, err := RunCrossCampus([]CampusSpec{{Name: "only"}}, DevelopConfig{Target: traffic.LabelDNSAmp}); err == nil {
		t.Error("accepted single campus")
	}
	specs := []CampusSpec{{Name: "a", Seed: 1}, {Name: "b", Seed: 2}}
	if _, err := RunCrossCampus(specs, DevelopConfig{Target: traffic.LabelBenign}); err == nil {
		t.Error("accepted benign target")
	}
}

func TestLabDatasets(t *testing.T) {
	lab := newLab(t)
	if _, err := lab.Collect(scenario(lab, 320, 321)); err != nil {
		t.Fatal(err)
	}
	if d := lab.PacketDataset(traffic.LabelDNSAmp, 0.5); d.Len() == 0 {
		t.Error("empty packet dataset")
	}
}

func TestLabSnapshotRoundTrip(t *testing.T) {
	cfg := datastore.DurableConfig{Dir: t.TempDir()}
	st, _, err := datastore.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := NewLab(Config{Name: "ucsb-sim", Plan: traffic.DefaultPlan(40), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Collect(scenario(lab, 330, 331)); err != nil {
		t.Fatal(err)
	}
	want, wantDigest := st.Stats(), st.Digest()
	if err := st.CheckpointDir(cfg.Dir); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := datastore.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()

	fresh, err := NewLab(Config{Name: "restored", Plan: traffic.DefaultPlan(40), Store: rec})
	if err != nil {
		t.Fatal(err)
	}
	got := fresh.Store().Stats()
	if got.Packets != want.Packets || got.Flows != want.Flows || got.DataBytes != want.DataBytes {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	if fresh.Store().Digest() != wantDigest {
		t.Fatal("the restored store differs from the one checkpointed")
	}
	// The restored lab is a working lab: develop a model from it.
	if _, err := fresh.Develop(DevelopConfig{Target: traffic.LabelDNSAmp, Seed: 332}); err != nil {
		t.Fatalf("develop on restored lab: %v", err)
	}
}

// TestSaveSnapshotLeavesWALIntact: the WAL is the hot tier's only durable
// copy. A store dropped without a checkpoint recovers from the log alone;
// a checkpoint of a store whose rows are all hot then keeps every record
// of the log, and the store recovers from the checkpoint and the log to
// the same digest.
func TestSaveSnapshotLeavesWALIntact(t *testing.T) {
	cfg := datastore.DurableConfig{Dir: t.TempDir(), Fsync: datastore.FsyncAlways}
	st, _, err := datastore.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := NewLab(Config{Name: "durable-sim", Plan: traffic.DefaultPlan(40), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	var acked uint64
	for _, seeds := range [][2]int64{{340, 341}, {342, 343}} {
		cs, err := lab.Collect(scenario(lab, seeds[0], seeds[1]))
		if err != nil {
			t.Fatal(err)
		}
		acked += cs.Stored
	}
	logged := st.WALStats().Records
	if logged < 2 {
		t.Fatalf("two collections logged %d WAL records", logged)
	}
	want := st.Digest()

	// Drop the store without a checkpoint: the restart the log exists for.
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rec, rs, err := datastore.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotPackets != 0 || rs.WALPackets != acked || rs.WALRecords != logged {
		t.Fatalf("recovered %+v, want all %d acked packets in %d records replayed from the log", rs, acked, logged)
	}
	if rec.Digest() != want {
		t.Fatal("the recovered store differs from the one that was dropped")
	}

	// Every row is still hot, so the checkpoint keeps the whole log.
	if err := rec.CheckpointDir(cfg.Dir); err != nil {
		t.Fatal(err)
	}
	if got := rec.WALStats().Records; got != logged {
		t.Fatalf("the checkpoint changed the WAL backlog: %d records, had %d", got, logged)
	}
	if err := rec.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rec2, rs, err := datastore.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.CloseWAL()
	if rs.SnapshotPackets != acked || rs.WALPackets != 0 || rs.WALRecords != logged {
		t.Fatalf("recovered %+v, want all %d acked packets below the checkpoint's cut, in %d records", rs, acked, logged)
	}
	if rec2.Digest() != want {
		t.Fatal("the store recovered from the checkpoint differs from the one that was dropped")
	}
}
