package eventlog

import (
	"testing"
	"time"
)

func TestGeneratorProducesOrderedEvents(t *testing.T) {
	g := NewGenerator(GeneratorConfig{Source: SourceSyslog, Rate: 10, Seed: 1})
	evs := g.Generate(time.Minute)
	if len(evs) < 300 {
		t.Fatalf("only %d events in a minute at 10/s", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatal("events out of order")
		}
	}
	for _, e := range evs {
		if e.Source != SourceSyslog || e.Host == "" || e.Message == "" {
			t.Fatalf("bad event: %+v", e)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := GeneratorConfig{Source: SourceFirewall, Rate: 5, Seed: 9}
	a := NewGenerator(cfg).Generate(time.Minute)
	b := NewGenerator(cfg).Generate(time.Minute)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TS != b[i].TS || a[i].Message != b[i].Message {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestGeneratorSkewShiftsTimestamps(t *testing.T) {
	base := NewGenerator(GeneratorConfig{Rate: 20, Seed: 4}).Generate(time.Minute)
	skewed := NewGenerator(GeneratorConfig{Rate: 20, Seed: 4, Skew: 5 * time.Second}).Generate(time.Minute)
	if len(base) != len(skewed) {
		t.Fatal("skew changed event count")
	}
	for i := range base {
		if skewed[i].TS-base[i].TS != 5*time.Second {
			t.Fatalf("event %d skew = %v, want 5s", i, skewed[i].TS-base[i].TS)
		}
	}
}

func TestSynchronizerFitsOffsetAndDrift(t *testing.T) {
	// Sensor clock: capture*1.0001 + 3s (100000 ns/s drift, 3s offset).
	var sensor, capture []time.Duration
	for _, sec := range []float64{10, 100, 500, 1000, 3000} {
		c := time.Duration(sec * float64(time.Second))
		s := time.Duration(sec*1.0001*float64(time.Second)) + 3*time.Second
		capture = append(capture, c)
		sensor = append(sensor, s)
	}
	var sync Synchronizer
	if err := sync.Fit(sensor, capture); err != nil {
		t.Fatal(err)
	}
	offset, drift := sync.model()
	if offset < 2900*time.Millisecond || offset > 3100*time.Millisecond {
		t.Errorf("offset = %v, want ~3s", offset)
	}
	if drift < 90_000 || drift > 110_000 {
		t.Errorf("drift = %v ns/s, want ~100000", drift)
	}
	// Correction should invert the model to within a millisecond.
	for i := range sensor {
		got := sync.Correct(sensor[i])
		if diff := got - capture[i]; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("Correct(%v) = %v, want %v", sensor[i], got, capture[i])
		}
	}
}

func TestSynchronizerSinglePoint(t *testing.T) {
	var sync Synchronizer
	if err := sync.Fit([]time.Duration{10 * time.Second}, []time.Duration{7 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if got := sync.Correct(20 * time.Second); got != 17*time.Second {
		t.Errorf("Correct = %v, want 17s", got)
	}
}

func TestSynchronizerErrors(t *testing.T) {
	var sync Synchronizer
	if err := sync.Fit(nil, nil); err == nil {
		t.Error("accepted empty references")
	}
	if err := sync.Fit([]time.Duration{1}, []time.Duration{1, 2}); err == nil {
		t.Error("accepted mismatched lengths")
	}
	// Identical capture points: drift unfittable.
	if err := sync.Fit(
		[]time.Duration{time.Second, 2 * time.Second},
		[]time.Duration{time.Second, time.Second},
	); err == nil {
		t.Error("accepted degenerate points")
	}
	// Unfitted synchronizer is identity.
	var id Synchronizer
	if id.Correct(5*time.Second) != 5*time.Second {
		t.Error("unfitted synchronizer should be identity")
	}
}

func TestMergeSortedAndGrep(t *testing.T) {
	a := NewGenerator(GeneratorConfig{Source: SourceSyslog, Rate: 5, Seed: 1}).Generate(30 * time.Second)
	b := NewGenerator(GeneratorConfig{Source: SourceFirewall, Rate: 5, Seed: 2}).Generate(30 * time.Second)
	merged := mergeSorted(a, b)
	if len(merged) != len(a)+len(b) {
		t.Fatal("merge lost events")
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].TS < merged[i-1].TS {
			t.Fatal("merged stream out of order")
		}
	}
	denies := grep(merged, "deny")
	if len(denies) == 0 {
		t.Error("no deny events found in firewall stream")
	}
	for _, e := range denies {
		if e.Source != SourceFirewall {
			t.Errorf("deny event from %v", e.Source)
		}
	}
}

func TestSourceSeverityStrings(t *testing.T) {
	if SourceFirewall.String() != "firewall" || sevCritical.String() != "critical" {
		t.Error("names wrong")
	}
}
