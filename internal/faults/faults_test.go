package faults

import (
	"errors"
	"fmt"
	"testing"
)

func TestHealthyInjectsNothing(t *testing.T) {
	// Injectors with nothing scripted and no rates set.
	for _, healthy := range []Injector{NewSchedule(), NewProb(1), Chain{}} {
		for i := 0; i < 1000; i++ {
			if err := healthy.Fail(OpInstall); err != nil {
				t.Fatalf("healthy injector failed call %d: %v", i, err)
			}
		}
	}
}

func TestScheduleFiresOnExactWindows(t *testing.T) {
	s := NewSchedule().
		FailCalls(OpInstall, 2, 4, KindTransient).
		FailCalls(OpInstall, 7, 7, kindPermanent)
	var got []string
	for i := 1; i <= 8; i++ {
		err := s.Fail(OpInstall)
		switch {
		case err == nil:
			got = append(got, "ok")
		case IsTransient(err):
			got = append(got, "t")
		case isPermanent(err):
			got = append(got, "p")
		}
	}
	want := []string{"ok", "t", "t", "t", "ok", "ok", "p", "ok"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: got %v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
	st := s.stats()[OpInstall]
	if st.Calls != 8 || st.Transient != 3 || st.Permanent != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestScheduleCountsPerOp(t *testing.T) {
	s := NewSchedule().FailCalls(OpInstall, 1, 1, KindTransient)
	// Calls to a different op must not advance OpInstall's counter.
	if err := s.Fail(OpInfer("cloud")); err != nil {
		t.Fatal("unscripted op failed")
	}
	if err := s.Fail(OpInstall); !IsTransient(err) {
		t.Fatalf("first OpInstall call should fail, got %v", err)
	}
}

func TestProbIsDeterministicAndRateBounded(t *testing.T) {
	run := func() (faults int, kinds []Kind) {
		p := NewProb(42).Rate(OpInstall, 0.3, 0.05)
		for i := 0; i < 2000; i++ {
			if err := p.Fail(OpInstall); err != nil {
				faults++
				var fe *faultError
				errors.As(err, &fe)
				kinds = append(kinds, fe.Kind)
			}
		}
		return faults, kinds
	}
	f1, k1 := run()
	f2, k2 := run()
	if f1 != f2 || len(k1) != len(k2) {
		t.Fatalf("same seed diverged: %d vs %d faults", f1, f2)
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("fault %d kind differs across identical runs", i)
		}
	}
	// ~35% of 2000; allow generous slack, but it must be in the ballpark.
	if f1 < 500 || f1 > 900 {
		t.Errorf("fault count %d far from expected ~700", f1)
	}
}

func TestProbPerOpStreamsAreIndependent(t *testing.T) {
	// Interleaving calls to another op must not change this op's fault
	// sequence: per-op RNGs are derived independently from the seed.
	seq := func(interleave bool) []uint64 {
		p := NewProb(7).Rate(OpInstall, 0.2, 0).Rate(OpInfer("cloud"), 0.5, 0)
		var out []uint64
		for i := 0; i < 500; i++ {
			if interleave {
				p.Fail(OpInfer("cloud"))
			}
			if err := p.Fail(OpInstall); err != nil {
				var fe *faultError
				errors.As(err, &fe)
				out = append(out, fe.Seq)
			}
		}
		return out
	}
	a, b := seq(false), seq(true)
	if len(a) != len(b) {
		t.Fatalf("interleaving changed fault count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d at call %d vs %d", i, a[i], b[i])
		}
	}
}

func TestChainFirstFaultWins(t *testing.T) {
	sched := NewSchedule().FailCalls(OpInstall, 1, 1, kindPermanent)
	noise := NewProb(1).Rate(OpInstall, 1.0, 0) // always transient
	c := Chain{sched, noise}
	err := c.Fail(OpInstall)
	if !isPermanent(err) {
		t.Fatalf("want scheduled permanent fault first, got %v", err)
	}
	if err := c.Fail(OpInstall); !IsTransient(err) {
		t.Fatalf("want noise transient fault second, got %v", err)
	}
}

func TestErrorClassification(t *testing.T) {
	te := &faultError{Op: OpInstall, Kind: KindTransient, Seq: 3}
	pe := &faultError{Op: OpInstall, Kind: kindPermanent, Seq: 4}
	if !IsTransient(te) || isPermanent(te) {
		t.Error("transient misclassified")
	}
	if !isPermanent(pe) || IsTransient(pe) {
		t.Error("permanent misclassified")
	}
	wrapped := fmt.Errorf("dataplane: %w", te)
	if !IsTransient(wrapped) {
		t.Error("wrapped transient not detected")
	}
	if IsTransient(errors.New("plain")) || isPermanent(nil) {
		t.Error("non-fault errors misclassified")
	}
	for _, e := range []*faultError{te, pe} {
		if e.Error() == "" {
			t.Error("empty rendering")
		}
	}
}
