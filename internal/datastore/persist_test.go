package datastore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"campuslab/internal/eventlog"
	"campuslab/internal/faults"
	"campuslab/internal/frame"
	"campuslab/internal/packet"
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

// handSnapshot lays out a v4 snapshot by hand: the preamble, a header
// block of counts {packets, events, flows, base ID, last TS}, then payloads
// as blocks — every checksum right, so only what the fields say is wrong.
func handSnapshot(counts [5]uint64, payloads ...[]byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint16([]byte(persistMagic), persistVersion)
	var h []byte
	for _, c := range counts {
		h = le.AppendUint64(h, c)
	}
	b = frame.AppendBlock(b, h)
	for _, p := range payloads {
		b = frame.AppendBlock(b, p)
	}
	return b
}

// twinFlowFrames returns a UDP packet over IPv4 and the same packet over
// IPv6 between the ::ffff:-mapped forms of its addresses, at one TS: two
// flows whose keys differ but whose hashes and first times are equal.
func twinFlowFrames(t testing.TB) []traffic.Frame {
	v4 := serializeFrame(t, []byte("twin"),
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{TTL: 64, Protocol: packet.IPProtocolUDP,
			SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2")},
		&packet.UDP{SrcPort: 5000, DstPort: 53},
	)
	udp := v4[14+20:]
	v6 := append(bytes.Clone(v4[:12]), 0x86, 0xdd, 6<<4, 0, 0, 0)
	v6 = binary.BigEndian.AppendUint16(v6, uint16(len(udp)))
	v6 = append(v6, byte(packet.IPProtocolUDP), 64)
	for _, a := range []string{"::ffff:10.0.0.1", "::ffff:10.0.0.2"} {
		a16 := netip.MustParseAddr(a).As16()
		v6 = append(v6, a16[:]...)
	}
	v6 = append(v6, udp...)
	return []traffic.Frame{{TS: time.Second, Data: v4}, {TS: time.Second, Data: v6}}
}

// packetBlockEnds returns the offset just past each packet block of a
// snapshot Save wrote.
func packetBlockEnds(t *testing.T, snap []byte) []int {
	t.Helper()
	h, _, rest, err := frame.Next(snap[6:], snapHeaderSize)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	for left := binary.LittleEndian.Uint64(h); left > 0; {
		var p []byte
		if p, _, rest, err = frame.Next(rest, snapBlockMax); err != nil {
			t.Fatal(err)
		}
		left -= uint64(binary.LittleEndian.Uint32(p))
		ends = append(ends, len(snap)-len(rest))
	}
	return ends
}

func TestLoadRejectsAbsurdLengths(t *testing.T) {
	// Each snapshot claims more than it holds, with every checksum right:
	// the length checks must fire before anything is allocated for the
	// claim, not the end of the input.
	le := binary.LittleEndian
	record := func(dlen uint32) []byte {
		b := le.AppendUint32(nil, 1)       // one record
		b = append(b, make([]byte, 12)...) // ts, link, label, actor
		return le.AppendUint32(b, dlen)    // the claimed data length
	}
	flow := le.AppendUint32(make([]byte, 94), 1<<31) // a flow claiming 2^31 packet IDs
	cases := map[string][]byte{
		"1 GiB packet block": append(handSnapshot([5]uint64{1, 0, 0, 0, 0}), 0, 0, 0, 0x40, 0, 0, 0, 0),
		"1 GiB record":       handSnapshot([5]uint64{1, 0, 0, 0, 0}, record(1<<30)),
		"1 GiB event":        handSnapshot([5]uint64{0, 1 << 40, 0, 0, 0}, le.AppendUint32(make([]byte, 12), 1<<30)),
		"2^31-ID flow":       handSnapshot([5]uint64{0, 0, 1 << 40, 0, 0}, flow),
	}
	for name, snap := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(snap))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: want ErrBadSnapshot, got %v", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 8<<20 {
			t.Errorf("%s: loading a %d-byte snapshot allocated %d bytes", name, len(snap), n)
		}
	}
}

func TestLoadRejectsOldVersion(t *testing.T) {
	var v1 bytes.Buffer
	v1.WriteString("CLDS")
	v1.Write([]byte{1, 0}) // v1: pre-checksum format, no longer readable
	v1.Write(make([]byte, 20))
	// v2 (untiered) and v3 (tiered) streamed CRC-checked sections; their
	// readers are gone too, and the pinned files must be refused by name.
	for v, snap := range map[int][]byte{
		1: v1.Bytes(),
		2: formatFixture(t, "snapshot-v2.clds"),
		3: formatFixture(t, "snapshot-v3.clds"),
	} {
		_, err := Load(bytes.NewReader(snap))
		if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), fmt.Sprintf("version %d ", v)) {
			t.Errorf("want ErrBadSnapshot naming version %d, got %v", v, err)
		}
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
	// the checksum: verify it reports as a corrupt block specifically.
	mut := append([]byte(nil), full...)
	mut[len(full)/3] ^= 0x01
	if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, frame.ErrCorrupt) || !errors.Is(err, ErrBadSnapshot) {
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
