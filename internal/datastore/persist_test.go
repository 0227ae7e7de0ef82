package datastore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"campuslab/internal/eventlog"
	"campuslab/internal/frame"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// roundTrip ingests into a durable store in a fresh in-memory directory,
// checkpoints it and drops it, and returns the dropped store and the one
// Recover rebuilds from the checkpoint and its log.
func roundTrip(t testing.TB, ingest func(st *Store)) (live, rec *Store) {
	t.Helper()
	mfs, cfg := newMemFS(1), DurableConfig{Dir: "/data"}
	live, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingest(live)
	if err := live.CheckpointDir(cfg.Dir); err != nil {
		t.Fatal(err)
	}
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rec, rs, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if rs.WALPackets != 0 {
		t.Fatalf("the checkpoint left %d packets to the log alone", rs.WALPackets)
	}
	return live, rec
}

// checkpointBytes encodes st as a checkpoint whose replay position is the
// start of WAL segment 1.
func checkpointBytes(t testing.TB, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := st.save(&buf, []walSeg{{walPos: walPos{seq: 1, lastTS: -1 << 62}}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	evs := eventlog.NewGenerator(eventlog.GeneratorConfig{Rate: 5, Seed: 1}).Generate(4 * time.Second)
	st, got := roundTrip(t, func(st *Store) {
		if _, err := st.AddBatch(fillFrames(t), 0); err != nil {
			t.Fatal(err)
		}
		st.AddEvents(evs)
	})
	// Every row with its ground truth, the flows, label counts, events and
	// the ID sequence survive.
	if d := surfaceOf(st).diff(got); d != "" {
		t.Fatal(d)
	}
	a, b := st.Stats(), got.Stats()
	if a.Packets != b.Packets || a.Flows != b.Flows || a.Events != b.Events || a.DataBytes != b.DataBytes || a.Events != uint64(len(evs)) {
		t.Fatalf("stats mismatch: %+v vs %+v", a, b)
	}
	// Query results identical: the indexes are rebuilt.
	f := MustFilter("dns && dns.qtype == ANY")
	if st.Count(f) != got.Count(f) {
		t.Errorf("query counts differ: %d vs %d", st.Count(f), got.Count(f))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a snapshot at all........"),
		append([]byte("CLDS"), make([]byte, 18)...), // version 0
	}
	for i, data := range cases {
		if _, _, _, err := load(bytes.NewReader(data), 0); !errors.Is(err, errBadSnapshot) {
			t.Errorf("case %d: want errBadSnapshot, got %v", i, err)
		}
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	st := fillStore(t)
	st.AddEvents(eventlog.NewGenerator(eventlog.GeneratorConfig{Rate: 5, Seed: 3}).Generate(2 * time.Second))
	full := checkpointBytes(t, st)
	for _, cut := range []int{30, len(full) / 2, len(full) - 3} {
		if _, _, _, err := load(bytes.NewReader(full[:cut]), 0); !errors.Is(err, errBadSnapshot) {
			t.Errorf("cut at %d: want errBadSnapshot, got %v", cut, err)
		}
	}
}

// handSnapshot lays out a checkpoint by hand: the preamble, a header block
// {events, flows, base ID, cut ID, last TS, replay seq, replay first ID,
// replay TS}, then payloads as blocks — every checksum right, so only what
// the fields say is wrong.
func handSnapshot(header [8]uint64, payloads ...[]byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint16([]byte(persistMagic), persistVersion)
	var h []byte
	for _, v := range header {
		h = le.AppendUint64(h, v)
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

func TestLoadRejectsAbsurdLengths(t *testing.T) {
	// Each checkpoint claims more than it holds, with every checksum right:
	// the length checks must fire before anything is allocated for the
	// claim, not the end of the input.
	le := binary.LittleEndian
	cases := map[string][]byte{
		"1 GiB event": handSnapshot([8]uint64{1 << 40, 0, 0, 0, 0, 1, 0, 0}, le.AppendUint32(make([]byte, 12), 1<<30)),
		"2^40 flows":  handSnapshot([8]uint64{0, 1 << 40, 0, 0, 0, 1, 0, 0}, make([]byte, flowSize)),
	}
	for name, snap := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := load(bytes.NewReader(snap), 0)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errBadSnapshot) {
			t.Errorf("%s: want errBadSnapshot, got %v", name, err)
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
	// v2 (untiered) and v3 (tiered) streamed CRC-checked sections, v4
	// checkpoints held their packets, v5 flows their packet IDs and v6
	// headers a packet count; their readers are gone too, and the pinned
	// files must be refused by name.
	for v, snap := range map[int][]byte{
		1: v1.Bytes(),
		2: formatFixture(t, "snapshot-v2.clds"),
		3: formatFixture(t, "snapshot-v3.clds"),
		4: formatFixture(t, "snapshot-v4-untiered.clds"),
		5: formatFixture(t, "snapshot-v5-untiered.clds"),
		6: formatFixture(t, "snapshot-v6-checkpoint.clds"),
	} {
		_, _, _, err := load(bytes.NewReader(snap), 0)
		if !errors.Is(err, errBadSnapshot) || !strings.Contains(err.Error(), fmt.Sprintf("version %d ", v)) {
			t.Errorf("want errBadSnapshot naming version %d, got %v", v, err)
		}
	}
}

func TestLoadDetectsBitFlips(t *testing.T) {
	st := fillStore(t)
	evs := eventlog.NewGenerator(eventlog.GeneratorConfig{Rate: 5, Seed: 2}).Generate(2 * time.Second)
	st.AddEvents(evs)
	full := checkpointBytes(t, st)
	// Flip one bit at positions spread across the header, the event section
	// and the flow section. Every flip must surface as a typed error — either
	// the checksum catches it, or a corrupted length field trips a
	// structural check first. Silently loading wrong data is the only
	// failure mode.
	positions := []int{6, 14, 22, 100, len(full) / 2, len(full) - 20, len(full) - 2}
	for _, pos := range positions {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x10
		_, _, _, err := load(bytes.NewReader(mut), 0)
		if !errors.Is(err, errBadSnapshot) {
			t.Errorf("bit flip at %d: want errBadSnapshot, got %v", pos, err)
		}
	}
	// A flip in the middle of a block's payload is only catchable by the
	// checksum: verify it reports as a corrupt block specifically.
	mut := append([]byte(nil), full...)
	mut[len(full)/3] ^= 0x01
	if _, _, _, err := load(bytes.NewReader(mut), 0); !errors.Is(err, frame.ErrCorrupt) || !errors.Is(err, errBadSnapshot) {
		t.Errorf("payload flip: want typed corruption error, got %v", err)
	}
}

// TestCheckpointFileAtomicAndLoadable: CheckpointDir publishes one
// checkpoint file, leaves no temp file beside it, and the directory
// recovers to the store it was taken of.
func TestCheckpointFileAtomicAndLoadable(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Recover(DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch(fillFrames(t), 0); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	st.CloseWAL()
	got, rs, err := Recover(DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer got.CloseWAL()
	if d := surfaceOf(st).diff(got); d != "" || rs.SnapshotPackets != st.Stats().Packets {
		t.Fatalf("round trip: %d packets below the cut of %d: %s", rs.SnapshotPackets, st.Stats().Packets, d)
	}
	// One checkpoint and no temp litter left behind.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(snaps) != 1 || len(tmps) != 0 {
		t.Errorf("checkpoint dir holds checkpoints %v and temp files %v, want one and none", snaps, tmps)
	}
}

// TestCrashMidSaveLeavesOldSnapshot is the regression test for the
// non-atomic snapshot write: a checkpoint that fails partway through
// writing, during fsync, or during rename must leave the previous
// checkpoint intact and loadable, with no temp litter.
func TestCrashMidSaveLeavesOldSnapshot(t *testing.T) {
	mfs, cfg := newMemFS(1), DurableConfig{Dir: "/snap", Shards: 2}
	st, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseWAL()
	if _, err := st.AddBatch(fillFrames(t), 0); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckpointDir(cfg.Dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cfg.Dir, snapName(1))
	old, err := mfs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.AddEvents([]eventlog.Event{{TS: time.Second, Host: "h", Message: "extra"}})

	kills := []struct {
		name string
		op   string // the file operation that fails
		call int    // which call of it
	}{
		// Write call 3 dies mid-stream: the temp file holds the preamble
		// and the header only.
		{"write", "write", 3},
		{"first-write", "write", 1},
		{"sync", "sync", 1},
		{"rename", "rename", 1},
	}
	for _, k := range kills {
		t.Run(k.name, func(t *testing.T) {
			mfs.failOp(k.op, filepath.Join(cfg.Dir, "snapshot-"), k.call, syscall.EIO)
			defer mfs.heal()
			if err := st.CheckpointDir(cfg.Dir); err == nil {
				t.Fatal("injected crash did not surface as an error")
			}
			if got, err := mfs.ReadFile(path); err != nil || !bytes.Equal(got, old) {
				t.Fatalf("old checkpoint altered by a crashed one (%v)", err)
			}
			if _, _, _, err := loadFile(mfs, path, 0); err != nil {
				t.Fatalf("old checkpoint unreadable after a crashed one: %v", err)
			}
			if _, stamp, _, err := findSnapshot(mfs, cfg.Dir); err != nil || stamp != 1 {
				t.Fatalf("newest checkpoint after a crashed one: stamp %d, %v", stamp, err)
			}
			if tmps := matchDir(mfs, cfg.Dir, "*.tmp*"); len(tmps) != 0 {
				t.Errorf("crashed checkpoint leaked temp files: %v", tmps)
			}
		})
	}

	// After the faults clear, the same store checkpoints fine and the new
	// checkpoint replaces the old one atomically.
	mfs.heal()
	if err := st.CheckpointDir(cfg.Dir); err != nil {
		t.Fatal(err)
	}
	snapPath, stamp, _, err := findSnapshot(mfs, cfg.Dir)
	if err != nil || stamp != 2 {
		t.Fatalf("newest checkpoint: stamp %d, %v", stamp, err)
	}
	got, _, _, err := loadFile(mfs, snapPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats().Events != 1 {
		t.Error("the healed checkpoint did not persist the new event")
	}
}

func TestSaveLoadEmptyStore(t *testing.T) {
	st, got := roundTrip(t, func(*Store) {})
	if d := surfaceOf(st).diff(got); d != "" || got.Stats().Packets != 0 {
		t.Errorf("empty store not empty after round trip: %s", d)
	}
}

func TestSaveLoadPropertySmall(t *testing.T) {
	// Property: any batch of tiny synthetic frames survives a round trip.
	fn := func(payloads [][]byte) bool {
		st, got := roundTrip(t, func(st *Store) {
			for i, p := range payloads {
				if len(p) > 512 {
					p = p[:512]
				}
				f := traffic.Frame{TS: time.Duration(i) * time.Millisecond, Data: p}
				if _, err := st.IngestFrame(&f); err != nil {
					t.Fatal(err)
				}
			}
		})
		return surfaceOf(st).diff(got) == "" &&
			got.Stats().Packets == st.Stats().Packets &&
			got.Stats().DataBytes == st.Stats().DataBytes
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
