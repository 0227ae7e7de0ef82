package core_test

import (
	"strconv"
	"strings"
	"testing"

	"campuslab/internal/core"
	"campuslab/internal/features"
	"campuslab/internal/traffic"
)

// synthDataset builds a deterministic, linearly separable two-class
// dataset whose decision boundary shifts with the campus index, so
// campus models genuinely differ.
func synthDataset(campus, n int) *features.Dataset {
	d := &features.Dataset{Schema: []string{"rate", "size", "spread"}}
	shift := float64(campus) * 0.4
	for i := 0; i < n; i++ {
		// Deterministic pseudo-noise without shared rand state.
		a := float64((i*2654435761)%1000) / 1000
		b := float64((i*40503+campus*7919)%1000) / 1000
		y := 0
		x := []float64{a, b, a + b}
		if a+0.7*b > 0.8+shift*0.1 {
			y = 1
			x[0] += 0.5 + shift
			x[2] += shift
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

func cannedCampuses(n int) []core.Campus {
	campuses := make([]core.Campus, n)
	names := []string{"ucsb", "princeton", "columbia", "berkeley"}
	for i := range campuses {
		i := i
		campuses[i] = core.Campus{
			Name:     names[i%len(names)],
			Features: func() *features.Dataset { return synthDataset(i, 400) },
		}
	}
	return campuses
}

// federatedFingerprint flattens everything a round produces into one
// comparable string: the full matrices at exact float precision, the
// serialized merged ensemble, and the transition log.
func federatedFingerprint(res *core.FederatedResult) string {
	var sb strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range res.Campuses {
		for j := range res.Campuses {
			sb.WriteString(res.Campuses[i] + "/" + res.Campuses[j] + ": " +
				f(res.Recall[i][j]) + " " + f(res.Accuracy[i][j]) + "\n")
		}
	}
	for j := range res.Campuses {
		sb.WriteString(f(res.FederatedRecall[j]) + " " + f(res.FederatedAccuracy[j]) + " " +
			f(res.PooledRecall[j]) + " " + f(res.PooledAccuracy[j]) + "\n")
	}
	sb.Write(res.MergedBytes)
	sb.WriteString(strings.Join(res.Log, "\n"))
	return sb.String()
}

func TestFederatedDeterministicAcrossWorkers(t *testing.T) {
	var prints []string
	for _, workers := range []int{1, 2, 4} {
		res, err := core.RunFederated(cannedCampuses(3), core.DevelopConfig{
			Target: traffic.LabelDNSAmp, Seed: 11, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, federatedFingerprint(res))
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Fatalf("worker count changed the federated round (run %d differs)", i)
		}
	}
}

func TestFederatedShapesAndMerge(t *testing.T) {
	res, err := core.RunFederated(cannedCampuses(3), core.DevelopConfig{
		Target: traffic.LabelDNSAmp, ForestTrees: 5, ForestDepth: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recall) != 3 || len(res.Recall[0]) != 3 {
		t.Fatalf("matrix shape %dx%d", len(res.Recall), len(res.Recall[0]))
	}
	if got := res.Merged.NumTrees(); got != 15 {
		t.Fatalf("merged ensemble has %d trees, want 15", got)
	}
	if len(res.MergedBytes) == 0 {
		t.Fatal("no serialized ensemble")
	}
	for i := range res.Campuses {
		if res.Recall[i][i] < 0.5 {
			t.Fatalf("campus %s home recall %.3f — separable dataset should be learnable",
				res.Campuses[i], res.Recall[i][i])
		}
	}
	if len(res.Log) == 0 || res.Log[len(res.Log)-1] != "round complete" {
		t.Fatalf("log malformed: %v", res.Log)
	}
}

func TestFederatedErrors(t *testing.T) {
	if _, err := core.RunFederated(nil, core.DevelopConfig{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	tiny := []core.Campus{{Name: "x", Features: func() *features.Dataset { return synthDataset(0, 5) }}}
	if _, err := core.RunFederated(tiny, core.DevelopConfig{}); err == nil {
		t.Fatal("5-example campus accepted")
	}
	nostore := []core.Campus{{Name: "x"}}
	if _, err := core.RunFederated(nostore, core.DevelopConfig{}); err == nil {
		t.Fatal("campus without store accepted")
	}
}

// TestFederatedRejectsUnusableCampus: with a valid target, each campus
// problem the per-campus fit checks for is refused by name — too few
// examples, no store to featurize, no example of the target class.
func TestFederatedRejectsUnusableCampus(t *testing.T) {
	cfg := core.DevelopConfig{Target: traffic.LabelDNSAmp, ForestTrees: 2, ForestDepth: 2}
	benignOnly := synthDataset(0, 50)
	for i := range benignOnly.Y {
		benignOnly.Y[i] = 0
	}
	for name, c := range map[string]core.Campus{
		"tiny":        {Name: "tiny", Features: func() *features.Dataset { return synthDataset(0, 5) }},
		"no-store":    {Name: "no-store"},
		"benign-only": {Name: "benign-only", Features: func() *features.Dataset { return benignOnly }},
	} {
		campuses := append(cannedCampuses(2), c)
		_, err := core.RunFederated(campuses, cfg)
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("campus %s: err = %v, want a refusal naming it", name, err)
		}
	}
}
