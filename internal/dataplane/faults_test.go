package dataplane

import (
	"errors"
	"testing"

	"campuslab/internal/faults"
)

func TestInstallFilterInjectedTransientFault(t *testing.T) {
	sw := NewSwitch(DefaultResources())
	sw.SetFaultInjector(faults.NewSchedule().FailCalls(faults.OpInstall, 1, 2))
	key := FilterKey{DstPort: 53}
	for i := 0; i < 2; i++ {
		err := sw.InstallFilter(key, ActionDrop)
		if !faults.IsTransient(err) {
			t.Fatalf("attempt %d: want transient fault, got %v", i+1, err)
		}
		if sw.filterCount() != 0 {
			t.Fatal("failed install mutated the table")
		}
	}
	// Third attempt is past the scripted window: succeeds.
	if err := sw.InstallFilter(key, ActionDrop); err != nil {
		t.Fatalf("post-window install: %v", err)
	}
	if sw.filterCount() != 1 {
		t.Fatalf("filter count = %d", sw.filterCount())
	}
}

func TestInstallRateLimitInjectedFault(t *testing.T) {
	sw := NewSwitch(DefaultResources())
	sw.SetFaultInjector(faults.NewSchedule().FailCalls(faults.OpInstall, 1, 1))
	err := sw.InstallRateLimit(FilterKey{DstPort: 53}, 1e6, 4e6)
	if !faults.IsTransient(err) {
		t.Fatalf("want transient fault, got %v", err)
	}
	if err := sw.InstallRateLimit(FilterKey{DstPort: 53}, 1e6, 4e6); err != nil {
		t.Fatalf("second install: %v", err)
	}
}

func TestTableFullIsTypedAndPermanent(t *testing.T) {
	sw := NewSwitch(Resources{Stages: 4, TCAMEntries: 64, ExactEntries: 1})
	if err := sw.InstallFilter(FilterKey{DstPort: 1}, ActionDrop); err != nil {
		t.Fatal(err)
	}
	err := sw.InstallFilter(FilterKey{DstPort: 2}, ActionDrop)
	if !errors.Is(err, errTableFull) {
		t.Fatalf("want ErrTableFull, got %v", err)
	}
	if faults.IsTransient(err) {
		t.Error("table-full must not classify as transient")
	}
	// Overwriting an existing key still works at capacity.
	if err := sw.InstallFilter(FilterKey{DstPort: 1}, ActionAlert); err != nil {
		t.Errorf("overwrite at capacity: %v", err)
	}
}

func TestNilInjectorCostsNothing(t *testing.T) {
	sw := NewSwitch(DefaultResources())
	// No SetFaultInjector call: the healthy path must behave exactly as
	// before the fault layer existed.
	for i := 0; i < 100; i++ {
		if err := sw.InstallFilter(FilterKey{DstPort: uint16(i + 1)}, ActionDrop); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	if sw.filterCount() != 100 {
		t.Fatalf("count = %d", sw.filterCount())
	}
}
