package datastore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"campuslab/internal/eventlog"
	"campuslab/internal/faults"
	"campuslab/internal/traffic"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	st := fillStore(t)
	evs := eventlog.NewGenerator(eventlog.GeneratorConfig{Source: eventlog.SourceIDS, Rate: 5, Seed: 1}).Generate(4 * time.Second)
	st.AddEvents(evs)

	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := st.Stats(), got.Stats()
	if a.Packets != b.Packets || a.Flows != b.Flows || a.Events != b.Events || a.DataBytes != b.DataBytes {
		t.Fatalf("stats mismatch: %+v vs %+v", a, b)
	}
	// Ground truth survives: label counts identical.
	ac, bc := st.LabelCounts(), got.LabelCounts()
	for l, n := range ac {
		if bc[l] != n {
			t.Errorf("label %v: %d vs %d", l, bc[l], n)
		}
	}
	// Query results identical.
	f := MustFilter("dns && dns.qtype == ANY")
	if st.Count(f) != got.Count(f) {
		t.Errorf("query counts differ: %d vs %d", st.Count(f), got.Count(f))
	}
	// Packet bytes identical in order.
	orig := st.packetsBetween(0, 1<<62)
	loaded := got.packetsBetween(0, 1<<62)
	if len(orig) != len(loaded) {
		t.Fatal("packet counts differ")
	}
	for i := range orig {
		if !bytes.Equal(orig[i].Data, loaded[i].Data) || orig[i].TS != loaded[i].TS {
			t.Fatalf("packet %d differs", i)
		}
		if orig[i].Label != loaded[i].Label || orig[i].Actor != loaded[i].Actor {
			t.Fatalf("packet %d ground truth lost", i)
		}
	}
	// Events identical.
	oe, le := st.eventsBetween(0, 1<<62), got.eventsBetween(0, 1<<62)
	for i := range oe {
		if oe[i].TS != le[i].TS || oe[i].Message != le[i].Message || oe[i].Host != le[i].Host {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a snapshot at all........"),
		append([]byte("CLDS"), make([]byte, 18)...), // version 0
	}
	for i, data := range cases {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("case %d: want ErrBadSnapshot, got %v", i, err)
		}
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	st := fillStore(t)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{30, len(full) / 2, len(full) - 3} {
		if _, err := Load(bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("cut at %d: want ErrBadSnapshot, got %v", cut, err)
		}
	}
}

func TestLoadRejectsAbsurdLengths(t *testing.T) {
	// Hand-built v2 header (with a valid header CRC) claiming one packet
	// with a 1 GiB body: the length sanity check must fire before any
	// allocation, not the section checksum at the end.
	counts := make([]byte, 16)
	counts[0] = 1 // 1 packet, 0 events
	var buf bytes.Buffer
	buf.WriteString("CLDS")
	buf.Write([]byte{2, 0}) // version
	buf.Write(counts)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(counts))
	buf.Write(crc[:])
	buf.Write(make([]byte, 12))      // packet header
	buf.Write([]byte{0, 0, 0, 0x40}) // len = 1 GiB
	if _, err := Load(&buf); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("want ErrBadSnapshot, got %v", err)
	}
}

func TestLoadRejectsOldVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("CLDS")
	buf.Write([]byte{1, 0}) // v1: pre-checksum format, no longer readable
	buf.Write(make([]byte, 20))
	if _, err := Load(&buf); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("want ErrBadSnapshot for v1 snapshot, got %v", err)
	}
}

func TestLoadDetectsBitFlips(t *testing.T) {
	st := fillStore(t)
	evs := eventlog.NewGenerator(eventlog.GeneratorConfig{Source: eventlog.SourceIDS, Rate: 5, Seed: 2}).Generate(2 * time.Second)
	st.AddEvents(evs)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one bit at positions spread across header, packet section, and
	// event section. Every flip must surface as a typed error — either the
	// checksum catches it, or a corrupted length field trips a structural
	// check first. Silently loading wrong data is the only failure mode.
	positions := []int{6, 14, 22, 100, len(full) / 2, len(full) - 20, len(full) - 2}
	for _, pos := range positions {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x10
		_, err := Load(bytes.NewReader(mut))
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("bit flip at %d: want ErrBadSnapshot, got %v", pos, err)
		}
	}
	// A flip in the middle of packet payload bytes is only catchable by
	// the checksum: verify it reports as errChecksum specifically.
	mut := append([]byte(nil), full...)
	mut[len(full)/3] ^= 0x01
	if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, errChecksum) && !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("payload flip: want typed corruption error, got %v", err)
	}
}

func TestSaveFileAtomicAndLoadable(t *testing.T) {
	st := fillStore(t)
	path := filepath.Join(t.TempDir(), "snap.clds")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats().Packets != st.Stats().Packets {
		t.Fatalf("round trip lost packets: %d vs %d", got.Stats().Packets, st.Stats().Packets)
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("snapshot dir has %d entries, want 1 (temp file leaked?)", len(ents))
	}
}

// TestCrashMidSaveLeavesOldSnapshot is the regression test for the
// non-atomic snapshot write: a failure partway through writing, during
// fsync, or during rename must leave the previous snapshot intact and
// loadable, with no temp litter.
func TestCrashMidSaveLeavesOldSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.clds")
	old := fillStore(t)
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	wantPackets := old.Stats().Packets

	bigger := fillStore(t)
	bigger.AddEvents([]eventlog.Event{{TS: time.Second, Host: "h", Message: "extra"}})

	kills := []struct {
		name string
		inj  faults.Injector
	}{
		// Write call 40 dies mid-stream: the temp file is truncated.
		{"write", faults.NewSchedule().FailCalls(faults.OpStoreWrite, 40, 40, faults.KindPermanent)},
		{"first-write", faults.NewSchedule().FailCalls(faults.OpStoreWrite, 1, 1, faults.KindPermanent)},
		{"sync", faults.NewSchedule().FailCalls(faults.OpStoreSync, 1, 1, faults.KindPermanent)},
		{"rename", faults.NewSchedule().FailCalls(faults.OpStoreRename, 1, 1, faults.KindPermanent)},
	}
	for _, k := range kills {
		t.Run(k.name, func(t *testing.T) {
			bigger.setFaultInjector(k.inj)
			defer bigger.setFaultInjector(nil)
			if err := bigger.SaveFile(path); err == nil {
				t.Fatal("injected crash did not surface as an error")
			}
			got, err := LoadFile(path)
			if err != nil {
				t.Fatalf("old snapshot unreadable after crashed save: %v", err)
			}
			if got.Stats().Packets != wantPackets {
				t.Fatalf("old snapshot altered: %d packets, want %d", got.Stats().Packets, wantPackets)
			}
			ents, err := os.ReadDir(filepath.Dir(path))
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 {
				t.Errorf("crashed save leaked temp files: %d entries in dir", len(ents))
			}
		})
	}

	// After the faults clear, the same store saves fine and the new
	// snapshot replaces the old one atomically.
	bigger.setFaultInjector(nil)
	if err := bigger.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats().Events == 0 {
		t.Error("recovered save did not persist the new events")
	}
}

func TestSaveLoadEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats().Packets != 0 {
		t.Error("empty store not empty after round trip")
	}
}

func TestSaveLoadPropertySmall(t *testing.T) {
	// Property: any batch of tiny synthetic frames survives a round trip.
	fn := func(payloads [][]byte) bool {
		st := New()
		for i, p := range payloads {
			if len(p) > 512 {
				p = p[:512]
			}
			f := traffic.Frame{TS: time.Duration(i) * time.Millisecond, Data: p}
			st.IngestFrame(&f)
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		return got.Stats().Packets == st.Stats().Packets &&
			got.Stats().DataBytes == st.Stats().DataBytes
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSave(b *testing.B) {
	st := fillStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkLoad(b *testing.B) {
	st := fillStore(b)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
