package eventlog

import (
	"testing"
	"time"
)

func TestGeneratorProducesOrderedEvents(t *testing.T) {
	g := NewGenerator(GeneratorConfig{Rate: 10, Seed: 1})
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
		if e.Source != SourceFirewall || e.Host == "" || e.Message == "" {
			t.Fatalf("bad event: %+v", e)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := GeneratorConfig{Rate: 5, Seed: 9}
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

func TestSourceSeverityStrings(t *testing.T) {
	if SourceFirewall.String() != "firewall" || sevCritical.String() != "critical" {
		t.Error("names wrong")
	}
}
