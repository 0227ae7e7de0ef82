package detect

import (
	"net/netip"
	"testing"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

var campus = netip.MustParsePrefix("10.0.0.0/8")

// multiAttackStore builds a store with benign traffic plus a port scan and
// a beacon; returns the store and the attack identities.
func multiAttackStore(t testing.TB, benignSeed int64) (*datastore.Store, netip.Addr) {
	t.Helper()
	plan := traffic.DefaultPlan(40)
	infected := plan.Host(12)
	benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 50, Duration: 10 * time.Second, Seed: benignSeed})
	scan := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelPortScan, Plan: plan,
		Start: 2 * time.Second, Duration: 5 * time.Second, Rate: 400, Seed: benignSeed + 1,
	})
	beacon := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelBeacon, Plan: plan, Victim: infected,
		Start: 0, Duration: 10 * time.Second, Rate: 3600, Seed: benignSeed + 2, // 1/s
	})
	st := datastore.New()
	g := traffic.NewMerge(benign, scan, beacon)
	var f traffic.Frame
	for g.Next(&f) {
		st.IngestFrame(&f)
	}
	return st, infected
}

// trainScanModel fits a forest over source-window features.
func trainScanModel(t testing.TB, st *datastore.Store) ml.Classifier {
	t.Helper()
	ds := features.FromSourceWindows(st, features.SourceWindowConfig{Window: time.Second, Campus: campus})
	if ds.ClassCounts()[int(traffic.LabelPortScan)] == 0 {
		t.Fatal("no scan windows in training data")
	}
	forest, err := ml.FitForest(ds, int(traffic.NumLabels), ml.ForestConfig{Trees: 20, MaxDepth: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

func TestSourceWindowDatasetSeparatesScanners(t *testing.T) {
	st, _ := multiAttackStore(t, 401)
	ds := features.FromSourceWindows(st, features.SourceWindowConfig{Window: time.Second, Campus: campus})
	counts := ds.ClassCounts()
	if counts[int(traffic.LabelPortScan)] == 0 || counts[int(traffic.LabelBenign)] == 0 {
		t.Fatalf("class counts: %v", counts)
	}
	// Scan windows must have higher destination fan-out on average.
	dstIdx := 1 // distinct_dsts
	var scanFan, benignFan, nScan, nBenign float64
	for i, row := range ds.X {
		if ds.Y[i] == int(traffic.LabelPortScan) {
			scanFan += row[dstIdx]
			nScan++
		} else if ds.Y[i] == int(traffic.LabelBenign) {
			benignFan += row[dstIdx]
			nBenign++
		}
	}
	if scanFan/nScan <= benignFan/nBenign {
		t.Errorf("scan fan-out %v <= benign %v", scanFan/nScan, benignFan/nBenign)
	}
}

func TestScanDetectorConvictsScanner(t *testing.T) {
	trainStore, _ := multiAttackStore(t, 402)
	model := trainScanModel(t, trainStore)

	// Held-out replay.
	replayStore, _ := multiAttackStore(t, 500)
	det, err := NewScanDetector(ScanDetectorConfig{
		Model: model, Window: time.Second, Campus: campus, Threshold: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	replayStore.Scan(func(sp *datastore.StoredPacket) bool {
		det.Observe(sp.TS, &sp.Summary)
		return true
	})
	alerts := det.Finish()
	if len(alerts) == 0 {
		t.Fatal("scanner not convicted")
	}
	// Identify the true scanner: an external source with port-scan flows.
	truth := map[netip.Addr]bool{}
	for _, fm := range replayStore.Flows() {
		if fm.Label == traffic.LabelPortScan && !campus.Contains(fm.Key.SrcIP) {
			truth[fm.Key.SrcIP] = true
		}
		if fm.Label == traffic.LabelPortScan && !campus.Contains(fm.Key.DstIP) {
			truth[fm.Key.DstIP] = true
		}
	}
	for _, a := range alerts {
		if !truth[a.Source] {
			t.Errorf("false conviction of %v (conf %.2f)", a.Source, a.Confidence)
		}
		if a.Confidence < 0.8 || a.Windows < 2 {
			t.Errorf("weak conviction: %+v", a)
		}
	}
}

func TestScanDetectorNoFalseConvictionsOnCleanTraffic(t *testing.T) {
	trainStore, _ := multiAttackStore(t, 403)
	model := trainScanModel(t, trainStore)
	det, err := NewScanDetector(ScanDetectorConfig{
		Model: model, Window: time.Second, Campus: campus, Threshold: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := traffic.DefaultPlan(40)
	clean := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 8 * time.Second, Seed: 404})
	fp := packet.NewFlowParser()
	var f traffic.Frame
	var s packet.Summary
	for clean.Next(&f) {
		if err := fp.Parse(f.Data, &s); err != nil {
			continue
		}
		det.Observe(f.TS, &s)
	}
	if alerts := det.Finish(); len(alerts) != 0 {
		t.Errorf("false convictions on clean traffic: %+v", alerts)
	}
}

func TestScanDetectorValidation(t *testing.T) {
	if _, err := NewScanDetector(ScanDetectorConfig{}); err == nil {
		t.Error("accepted nil model")
	}
}

func TestHuntBeaconsHeuristic(t *testing.T) {
	st, infected := multiAttackStore(t, 405)
	findings := HuntBeacons(st, BeaconConfig{Campus: campus})
	if len(findings) == 0 {
		t.Fatal("beacon not found")
	}
	top := findings[0]
	if top.Pair.Host != infected {
		t.Errorf("top finding host = %v, want infected %v", top.Pair.Host, infected)
	}
	if top.Score <= 0 || top.Evidence == "" {
		t.Errorf("finding lacks evidence: %+v", top)
	}
	// No benign pair should look beacon-like: all findings must involve
	// the infected host.
	for _, f := range findings {
		if f.Pair.Host != infected {
			t.Errorf("false beacon finding: %+v", f)
		}
	}
}

func TestPairFeaturesPeriodicity(t *testing.T) {
	st, infected := multiAttackStore(t, 407)
	ds, ids := features.FromPairs(st, features.PairConfig{Campus: campus})
	if len(ids) != ds.Len() {
		t.Fatal("ids misaligned")
	}
	cvIdx := 2
	for i, id := range ids {
		if ds.Y[i] == int(traffic.LabelBeacon) {
			if id.Host != infected {
				t.Errorf("beacon pair host = %v", id.Host)
			}
			if ds.X[i][cvIdx] > 0.3 {
				t.Errorf("beacon gap_cv = %v, want low (periodic)", ds.X[i][cvIdx])
			}
		}
	}
}

func BenchmarkScanDetectorObserve(b *testing.B) {
	trainStore, _ := multiAttackStore(b, 408)
	model := trainScanModel(b, trainStore)
	det, err := NewScanDetector(ScanDetectorConfig{Model: model, Window: time.Second, Campus: campus})
	if err != nil {
		b.Fatal(err)
	}
	var summaries []packet.Summary
	var stamps []time.Duration
	trainStore.Scan(func(sp *datastore.StoredPacket) bool {
		summaries = append(summaries, sp.Summary)
		stamps = append(stamps, sp.TS)
		return len(summaries) < 8192
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(summaries)
		det.Observe(stamps[j], &summaries[j])
	}
}
