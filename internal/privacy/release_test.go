package privacy

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// releaseOne releases a single count: a one-bucket histogram.
func releaseOne(b *ReleaseBudget, trueCount, sensitivity, epsilon float64) (float64, error) {
	out, err := b.ReleaseHistogram(map[string]float64{"n": trueCount}, sensitivity, epsilon)
	return out["n"], err
}

func TestReleaseBudgetEnforced(t *testing.T) {
	b, err := NewReleaseBudget(1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := releaseOne(b, 100, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	if b.Remaining() < 0.39 || b.Remaining() > 0.41 {
		t.Errorf("remaining = %v", b.Remaining())
	}
	if _, err := releaseOne(b, 100, 1, 0.6); err == nil {
		t.Error("budget overrun allowed")
	}
	if _, err := releaseOne(b, 100, 1, 0.4); err != nil {
		t.Errorf("exact remaining budget refused: %v", err)
	}
}

func TestReleaseCountNoiseScales(t *testing.T) {
	// Noise magnitude ~ sensitivity/epsilon: variance of Laplace(s) is
	// 2s². Sample and compare two epsilons.
	meanAbsErr := func(eps float64, seed int64) float64 {
		b, _ := NewReleaseBudget(5000, seed)
		var sum float64
		const n = 3000
		for i := 0; i < n; i++ {
			got, err := releaseOne(b, 1e6, 1, eps)
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(got - 1e6)
		}
		return sum / n
	}
	loose := meanAbsErr(0.1, 2) // scale 10
	tight := meanAbsErr(1.0, 3) // scale 1
	if loose < 5*tight {
		t.Errorf("noise did not scale with 1/epsilon: %v vs %v", loose, tight)
	}
	// Mean absolute error of Laplace(s) is s.
	if tight < 0.7 || tight > 1.4 {
		t.Errorf("eps=1 mean abs error = %v, want ~1", tight)
	}
}

func TestReleaseCountClampsNegative(t *testing.T) {
	b, _ := NewReleaseBudget(1000, 4)
	for i := 0; i < 500; i++ {
		got, err := releaseOne(b, 0.5, 1, 0.05) // tiny count, huge noise
		if err != nil {
			t.Fatal(err)
		}
		if got < 0 {
			t.Fatalf("negative release %v", got)
		}
	}
}

func TestReleaseHistogram(t *testing.T) {
	b, _ := NewReleaseBudget(1.0, 5)
	counts := map[string]float64{"dns": 5000, "web": 80000, "ssh": 120}
	got, err := b.ReleaseHistogram(counts, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("buckets = %d", len(got))
	}
	for k, v := range got {
		if math.Abs(v-counts[k]) > 100 {
			t.Errorf("bucket %s noised too heavily: %v vs %v", k, v, counts[k])
		}
	}
	// Parallel composition: one charge for the whole histogram.
	if r := b.Remaining(); math.Abs(r-0.5) > 1e-9 {
		t.Errorf("remaining = %v, want 0.5", r)
	}
}

func TestReleaseValidation(t *testing.T) {
	if _, err := NewReleaseBudget(0, 1); err == nil {
		t.Error("zero epsilon accepted")
	}
	b, _ := NewReleaseBudget(1, 1)
	if _, err := releaseOne(b, 1, 0, 0.1); err == nil {
		t.Error("zero sensitivity accepted")
	}
	if _, err := releaseOne(b, 1, 1, 0); err == nil {
		t.Error("zero epsilon release accepted")
	}
	if _, err := b.ReleaseHistogram(nil, 1, 0); err == nil {
		t.Error("zero epsilon histogram accepted")
	}
}

// TestReleaseHistogramSeedDeterministic: one seed gives every bucket the
// same noise on every run. The noise is drawn in key order, not in map
// order, which Go randomizes: twenty buckets released fifty times would
// all but surely see two orders.
func TestReleaseHistogramSeedDeterministic(t *testing.T) {
	counts := make(map[string]float64)
	for i := 0; i < 20; i++ {
		counts[fmt.Sprintf("class-%02d", i)] = float64(100 * i)
	}
	release := func() map[string]float64 {
		b, err := NewReleaseBudget(1, 68)
		if err != nil {
			t.Fatal(err)
		}
		out, err := b.ReleaseHistogram(counts, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := release()
	for run := 0; run < 50; run++ {
		if got := release(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: the same seed released %v, then %v", run, want, got)
		}
	}
}
