package capture

import (
	"io"
	"os"
	"testing"
	"time"
)

func TestRotatingWriterBySize(t *testing.T) {
	dir := t.TempDir()
	w, err := newRotatingWriter(rotateConfig{Dir: dir, Prefix: "seg", MaxBytes: 10_000, Keep: 100})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Data: make([]byte, 1000)}
	for i := 0; i < 50; i++ {
		rec.TS = time.Duration(i) * time.Millisecond
		if err := w.write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := w.segments()
	if err != nil {
		t.Fatal(err)
	}
	// 50 KB at ~10 KB per segment => ~5 segments.
	if len(segs) < 4 || len(segs) > 7 {
		t.Errorf("segments = %d, want ~5", len(segs))
	}
	// Every segment must be a valid pcap; records must total 50.
	total := 0
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewPcapReader(f)
		if err != nil {
			t.Fatalf("segment %s: %v", seg, err)
		}
		var rr Record
		for {
			if err := r.Next(&rr); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("segment %s: %v", seg, err)
			}
			total++
		}
		f.Close()
	}
	if total != 50 {
		t.Errorf("recovered %d records, want 50", total)
	}
	if recs, rots := w.stats(); recs != 50 || rots != len(segs) {
		t.Errorf("stats = %d/%d", recs, rots)
	}
}

func TestRotatingWriterByTimeSpan(t *testing.T) {
	dir := t.TempDir()
	w, err := newRotatingWriter(rotateConfig{Dir: dir, MaxSpan: time.Second, Keep: 100})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Data: make([]byte, 100)}
	// 5 scenario-seconds of records at 10 per second.
	for i := 0; i < 50; i++ {
		rec.TS = time.Duration(i) * 100 * time.Millisecond
		if err := w.write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := w.segments()
	if len(segs) != 5 {
		t.Errorf("segments = %d, want 5 (1s spans)", len(segs))
	}
}

func TestRotatingWriterRetention(t *testing.T) {
	dir := t.TempDir()
	w, err := newRotatingWriter(rotateConfig{Dir: dir, MaxBytes: 2_000, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Data: make([]byte, 1000)}
	for i := 0; i < 30; i++ {
		rec.TS = time.Duration(i)
		if err := w.write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := w.segments()
	if len(segs) != 3 {
		t.Errorf("retained %d segments, want 3", len(segs))
	}
	// Retained segments are the newest ones (highest sequence numbers).
	if segs[len(segs)-1] < segs[0] {
		t.Error("segments not sorted")
	}
}

func TestRotatingWriterValidation(t *testing.T) {
	if _, err := newRotatingWriter(rotateConfig{}); err == nil {
		t.Error("accepted empty dir")
	}
	if _, err := newRotatingWriter(rotateConfig{Dir: "/nonexistent-dir-xyz"}); err == nil {
		t.Error("accepted missing dir")
	}
}
