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
		FailCalls(OpInstall, 2, 4).
		FailCalls(OpInstall, 7, 7)
	var got []string
	for i := 1; i <= 8; i++ {
		err := s.Fail(OpInstall)
		switch {
		case err == nil:
			got = append(got, "ok")
		case IsTransient(err):
			got = append(got, "t")
		}
	}
	want := []string{"ok", "t", "t", "t", "ok", "ok", "t", "ok"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: got %v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
	st := s.stats()[OpInstall]
	if st.Calls != 8 || st.Transient != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestScheduleCountsPerOp(t *testing.T) {
	s := NewSchedule().FailCalls(OpInstall, 1, 1)
	// Calls to a different op must not advance OpInstall's counter.
	if err := s.Fail(OpInfer("cloud")); err != nil {
		t.Fatal("unscripted op failed")
	}
	if err := s.Fail(OpInstall); !IsTransient(err) {
		t.Fatalf("first OpInstall call should fail, got %v", err)
	}
}

func TestProbIsDeterministicAndRateBounded(t *testing.T) {
	run := func() (seqs []uint64) {
		p := NewProb(42).Rate(OpInstall, 0.35)
		for i := 0; i < 2000; i++ {
			if err := p.Fail(OpInstall); err != nil {
				var fe *faultError
				errors.As(err, &fe)
				seqs = append(seqs, fe.Seq)
			}
		}
		return seqs
	}
	k1, k2 := run(), run()
	f1 := len(k1)
	if f1 != len(k2) {
		t.Fatalf("same seed diverged: %d vs %d faults", f1, len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("fault %d fell on call %d, then on call %d, across identical runs", i, k1[i], k2[i])
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
		p := NewProb(7).Rate(OpInstall, 0.2).Rate(OpInfer("cloud"), 0.5)
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
	// The schedule has seen one call more than the noise, so the call
	// index on a fault says which injector raised it.
	sched := NewSchedule().FailCalls(OpInstall, 2, 2)
	sched.Fail(OpInstall)
	noise := NewProb(1).Rate(OpInstall, 1.0) // always fails
	c := Chain{sched, noise}
	var fe *faultError
	if err := c.Fail(OpInstall); !errors.As(err, &fe) || fe.Seq != 2 {
		t.Fatalf("want the scheduled fault (call 2) first, got %v", err)
	}
	if err := c.Fail(OpInstall); !errors.As(err, &fe) || fe.Seq != 2 {
		t.Fatalf("want the noise fault (its call 2) second, got %v", err)
	}
}

func TestErrorClassification(t *testing.T) {
	te := &faultError{Op: OpInstall, Seq: 3}
	if !IsTransient(te) {
		t.Error("transient misclassified")
	}
	wrapped := fmt.Errorf("dataplane: %w", te)
	if !IsTransient(wrapped) {
		t.Error("wrapped transient not detected")
	}
	if IsTransient(errors.New("plain")) || IsTransient(nil) {
		t.Error("non-fault errors misclassified")
	}
	if te.Error() == "" {
		t.Error("empty rendering")
	}
}
