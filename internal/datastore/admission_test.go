package datastore

import (
	"errors"
	"testing"
	"time"

	"campuslab/internal/traffic"
)

// labeledFrames builds n frames alternating benign / attack labels so the
// shed path has both priorities to choose between.
func labeledFrames(n int) []traffic.Frame {
	frames := make([]traffic.Frame, n)
	for i := range frames {
		label := traffic.LabelBenign
		if i%2 == 1 {
			label = traffic.LabelDNSAmp
		}
		frames[i] = traffic.Frame{
			TS:    time.Duration(i) * time.Millisecond,
			Data:  make([]byte, 100),
			Label: label,
		}
	}
	return frames
}

func TestAdmissionDisabledByDefault(t *testing.T) {
	st := New()
	if got := st.admissionState(); got != admitAccept {
		t.Fatalf("default state = %v, want accept", got)
	}
	r, err := st.AddBatchAdmit(labeledFrames(100), 1)
	if err != nil || r.Ingested != 100 || r.Shed != 0 {
		t.Fatalf("ungated ingest = %+v, %v", r, err)
	}
}

func TestAdmissionSheddingKeepsAttackEvidence(t *testing.T) {
	st := New()
	// Cap at 200 packets, shed from 50% — the first batch of 80 lands
	// whole, the second (at 40% → still accept) lands whole, the third
	// crosses the watermark and sheds benign frames.
	st.SetAdmission(AdmissionConfig{MaxPackets: 200, ShedAt: 0.5})
	r1, err := st.AddBatchAdmit(labeledFrames(80), 1)
	if err != nil || r1.State != admitAccept || r1.Ingested != 80 {
		t.Fatalf("batch 1 = %+v, %v", r1, err)
	}
	r2, err := st.AddBatchAdmit(labeledFrames(80), 1)
	if err != nil || r2.State != admitAccept {
		t.Fatalf("batch 2 = %+v, %v", r2, err)
	}
	// 160/200 = 80% ≥ 50%: shed mode. Benign half dropped, attacks kept.
	r3, err := st.AddBatchAdmit(labeledFrames(80), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r3.State != admitShed {
		t.Fatalf("state = %v, want shed", r3.State)
	}
	if r3.Ingested != 40 || r3.Shed != 40 {
		t.Fatalf("shed batch = %+v, want 40 stored / 40 shed", r3)
	}
	// Every shed frame was benign: attack count is intact.
	attacks := 0
	st.Scan(func(sp *StoredPacket) bool {
		if sp.Label == traffic.LabelDNSAmp {
			attacks++
		}
		return true
	})
	if attacks != 120 {
		t.Fatalf("attack packets = %d, want 120 (none shed)", attacks)
	}
}

func TestAdmissionRejectsAtCapacity(t *testing.T) {
	st := New()
	st.SetAdmission(AdmissionConfig{MaxPackets: 100, ShedAt: 0.9})
	if _, err := st.AddBatchAdmit(labeledFrames(100), 1); err != nil {
		t.Fatal(err)
	}
	r, err := st.AddBatchAdmit(labeledFrames(10), 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if r.State != admitReject || r.Ingested != 0 {
		t.Fatalf("rejected batch = %+v", r)
	}
	if st.Stats().Packets != 100 {
		t.Fatalf("store grew past cap: %d", st.Stats().Packets)
	}
	if st.admissionState() != admitReject {
		t.Fatalf("state = %v, want reject", st.admissionState())
	}
}

func TestAdmissionByteCap(t *testing.T) {
	st := New()
	// 100-byte frames; byte cap of 5000 → 50 frames fills it.
	st.SetAdmission(AdmissionConfig{MaxBytes: 5000, ShedAt: 0.99})
	if _, err := st.AddBatchAdmit(labeledFrames(50), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatchAdmit(labeledFrames(1), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("byte cap not enforced: %v", err)
	}
}

func TestAdmissionReopensAfterEviction(t *testing.T) {
	st := New()
	st.SetAdmission(AdmissionConfig{MaxPackets: 100, ShedAt: 0.9})
	frames := labeledFrames(100) // TS 0..99ms
	if _, err := st.AddBatchAdmit(frames, 1); err != nil {
		t.Fatal(err)
	}
	if st.admissionState() != admitReject {
		t.Fatal("not at capacity")
	}
	// Retention reclaims the first half; the gate must reopen.
	if n := st.EvictBefore(50 * time.Millisecond); n != 50 {
		t.Fatalf("evicted %d, want 50", n)
	}
	if got := st.admissionState(); got != admitAccept {
		t.Fatalf("state after eviction = %v, want accept", got)
	}
	r, err := st.AddBatchAdmit(labeledFrames(10), 1)
	if err != nil || r.Ingested != 10 {
		t.Fatalf("post-eviction ingest = %+v, %v", r, err)
	}
}

func TestAdmissionShedIsDeterministic(t *testing.T) {
	run := func() (IngestResult, uint64) {
		st := New()
		st.SetAdmission(AdmissionConfig{MaxPackets: 100, ShedAt: 0.5})
		st.AddBatchAdmit(labeledFrames(60), 1)
		r, _ := st.AddBatchAdmit(labeledFrames(60), 1)
		return r, st.Stats().Packets
	}
	r1, p1 := run()
	r2, p2 := run()
	if r1 != r2 || p1 != p2 {
		t.Fatalf("identical workloads shed differently: %+v/%d vs %+v/%d", r1, p1, r2, p2)
	}
}

func TestAdmitStateThresholds(t *testing.T) {
	cfg := AdmissionConfig{MaxPackets: 100, ShedAt: 0.85}
	for _, tc := range []struct {
		packets uint64
		want    AdmitState
	}{
		{0, admitAccept}, {84, admitAccept}, {85, admitShed},
		{99, admitShed}, {100, admitReject}, {150, admitReject},
	} {
		if got := admitState(cfg, tc.packets, 0); got != tc.want {
			t.Errorf("admitState(%d pkts) = %v, want %v", tc.packets, got, tc.want)
		}
	}
	// Tightest cap wins: bytes can reject even when packets accept.
	both := AdmissionConfig{MaxPackets: 1000, MaxBytes: 100, ShedAt: 0.85}
	if got := admitState(both, 10, 100); got != admitReject {
		t.Errorf("byte-bound state = %v, want reject", got)
	}
	for _, s := range []AdmitState{admitAccept, admitShed, admitReject} {
		if s.String() == "" {
			t.Errorf("%d has empty String()", s)
		}
	}
}

func TestEmptyBatchAtCapacityNotRefused(t *testing.T) {
	// Streaming collectors flush a trailing batch unconditionally; when it
	// is empty it stores nothing and must never draw ErrOverloaded — that
	// would fail a Collect whose every frame was already acknowledged.
	st := NewSharded(1)
	st.SetAdmission(AdmissionConfig{MaxPackets: 2, ShedAt: 0.5})
	atk := []traffic.Frame{
		{Data: make([]byte, 64), Label: traffic.LabelDNSAmp},
		{Data: make([]byte, 64), Label: traffic.LabelDNSAmp},
	}
	if _, err := st.AddBatch(atk, 1); err != nil {
		t.Fatal(err)
	}
	// At capacity a real batch is refused...
	if _, err := st.AddBatch(labeledFrames(2), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full store accepted a batch (err=%v)", err)
	}
	rejected := obsIngestRejected.Value()
	// ...but the empty flush passes, and is not counted as a rejection.
	r, err := st.AddBatchAdmit(nil, 1)
	if err != nil {
		t.Fatalf("empty batch refused at capacity: %v", err)
	}
	if r.Ingested != 0 || r.Shed != 0 {
		t.Fatalf("empty batch result %+v", r)
	}
	if got := obsIngestRejected.Value(); got != rejected {
		t.Fatalf("empty batch counted as rejected (%d -> %d)", rejected, got)
	}
}

func TestSerialIngestHonorsGate(t *testing.T) {
	// Once a gate is armed, the serial path routes through it with the
	// batched path's exact semantics: shed drops benign silently, reject
	// refuses with ErrOverloaded, nothing grows without bound.
	st := NewSharded(1)
	st.SetAdmission(AdmissionConfig{MaxPackets: 4, ShedAt: 0.5})
	atk := traffic.Frame{Data: make([]byte, 64), Label: traffic.LabelDNSAmp}
	ben := traffic.Frame{Data: make([]byte, 64)}
	for i := 0; i < 2; i++ { // below the watermark everything lands
		if _, err := st.IngestFrame(&atk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.IngestFrame(&ben); err != nil { // shed band: dropped, no error
		t.Fatal(err)
	}
	if got := st.Stats().Packets; got != 2 {
		t.Fatalf("shed benign frame stored (packets=%d)", got)
	}
	for i := 0; i < 2; i++ { // shed band keeps attack evidence
		if _, err := st.IngestFrame(&atk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.IngestFrame(&atk); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("serial ingest at capacity: err=%v, want ErrOverloaded", err)
	}
	if got := st.Stats().Packets; got != 4 {
		t.Fatalf("packets = %d, want 4", got)
	}
}
