package datastore

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"campuslab/internal/faults"
	"campuslab/internal/traffic"
)

// walFrames builds n deterministic synthetic frames (not necessarily
// parseable packets — the WAL must round-trip arbitrary bytes).
func walFrames(n, seed int) []traffic.Frame {
	frames := make([]traffic.Frame, n)
	for i := range frames {
		data := make([]byte, 20+(seed+i)%80)
		for j := range data {
			data[j] = byte(seed + i + j)
		}
		frames[i] = traffic.Frame{
			TS:    time.Duration(i) * time.Millisecond,
			Data:  data,
			Label: traffic.Label((seed + i) % 3),
			Actor: i%2 == 0,
		}
	}
	return frames
}

// replayWAL replays dir's log on fsys from segment from into apply and
// reports the records applied and whether the replay reached the end
// without corruption or a gap.
func replayWAL(fsys faults.FS, dir string, from uint64, apply func(frames []traffic.Frame, links []uint16)) (records uint64, clean bool, err error) {
	stop, _, err := replayWALFrom(fsys, dir, from, func(uint64) {}, func(frames []traffic.Frame, links []uint16) {
		apply(frames, links)
		records++
	})
	return records, stop == 0, err
}

// replayAll collects every replayed frame from dir.
func replayAll(t *testing.T, dir string) ([]traffic.Frame, []uint16, uint64, bool) {
	t.Helper()
	var frames []traffic.Frame
	var links []uint16
	records, clean, err := replayWAL(faults.OS, dir, 0, func(fs []traffic.Frame, ls []uint16) {
		frames = append(frames, fs...)
		links = append(links, ls...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames, links, records, clean
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(faults.OS, walConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := walFrames(50, 7)
	links := make([]uint16, len(want))
	for i := range links {
		links[i] = uint16(i % 4)
	}
	for i := 0; i < len(want); i += 10 {
		if err := w.append(want[i:i+10], links[i:i+10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, gotLinks, records, clean := replayAll(t, dir)
	if !clean {
		t.Fatal("clean replay reported torn")
	}
	if records != 5 {
		t.Fatalf("records = %d, want 5", records)
	}
	if len(got) != len(want) {
		t.Fatalf("frames = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Data, want[i].Data) || got[i].TS != want[i].TS ||
			got[i].Label != want[i].Label || got[i].Actor != want[i].Actor {
			t.Fatalf("frame %d differs", i)
		}
		if gotLinks[i] != links[i] {
			t.Fatalf("link %d = %d, want %d", i, gotLinks[i], links[i])
		}
	}
}

func TestWALRotationAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation nearly every append.
	w, err := openWAL(faults.OS, walConfig{Dir: dir, SegmentBytes: 256, Fsync: fsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := walFrames(40, 3)
	for i := range want {
		if err := w.append(want[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(faults.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(seqs))
	}
	got, _, records, clean := replayAll(t, dir)
	if !clean || records != 40 || len(got) != 40 {
		t.Fatalf("replay = (%d records, %d frames, clean=%v), want (40, 40, true)", records, len(got), clean)
	}
	for i := range want {
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("frame %d differs after rotation", i)
		}
	}
}

// appendN writes n single-frame records and returns the segment path.
func appendN(t *testing.T, dir string, n int) string {
	t.Helper()
	w, err := openWAL(faults.OS, walConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(n, 11)
	for i := range frames {
		if err := w.append(frames[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, segName(w.seq))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWALTornTailStopsCleanly(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 12} {
		dir := t.TempDir()
		path := appendN(t, dir, 8)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if cut >= len(data)-walHeaderSize {
			cut = len(data) - walHeaderSize - 1
		}
		// Tear the file mid-record: drop the last cut bytes.
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		frames, _, records, clean := replayAll(t, dir)
		if clean {
			t.Fatalf("cut=%d: torn tail reported clean", cut)
		}
		if records != 7 {
			t.Fatalf("cut=%d: replayed %d records, want 7 (all but torn last)", cut, records)
		}
		if len(frames) != 7 {
			t.Fatalf("cut=%d: %d frames", cut, len(frames))
		}
	}
}

func TestWALBitFlipStopsAtCorruption(t *testing.T) {
	dir := t.TempDir()
	path := appendN(t, dir, 8)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file (inside some record payload).
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	frames, _, records, clean := replayAll(t, dir)
	if clean {
		t.Fatal("bit flip reported clean")
	}
	if records >= 8 {
		t.Fatalf("replayed %d records past corruption", records)
	}
	if uint64(len(frames)) != records {
		t.Fatalf("frames (%d) != records (%d): partial record applied", len(frames), records)
	}
}

func TestWALBadHeaderIgnored(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 3)
	// A second segment with a trashed header: replay stops before it.
	seqs, _ := listSegments(faults.OS, dir)
	next := seqs[len(seqs)-1] + 1
	if err := os.WriteFile(filepath.Join(dir, segName(next)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, records, clean := replayAll(t, dir)
	if clean || records != 3 {
		t.Fatalf("replay = (%d, clean=%v), want (3, false)", records, clean)
	}
}

func TestWALSegmentGapStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(faults.OS, walConfig{Dir: dir, SegmentBytes: 256, Fsync: fsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(30, 5)
	for i := range frames {
		if err := w.append(frames[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(faults.OS, dir)
	if len(seqs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(seqs))
	}
	// Remove a middle segment — simulates an interrupted truncation.
	if err := os.Remove(filepath.Join(dir, segName(seqs[1]))); err != nil {
		t.Fatal(err)
	}
	_, _, records, clean := replayAll(t, dir)
	if clean {
		t.Fatal("segment gap reported clean")
	}
	// Only the first segment's records may be applied: a prefix.
	first, _, _ := replaySegment(faults.OS, filepath.Join(dir, segName(seqs[0])), seqs[0], new([]byte), func([]traffic.Frame, []uint16) {})
	if records != first {
		t.Fatalf("replayed %d records, want first segment's %d", records, first)
	}
}

func TestWALTruncateResetsLog(t *testing.T) {
	// truncate(seq) removes the segments below seq and nothing else: what
	// is left, the live segment included, replays as a suffix of the log.
	dir := t.TempDir()
	w, err := openWAL(faults.OS, walConfig{Dir: dir, SegmentBytes: 256, Fsync: fsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(20, 9)
	for i := range frames {
		if err := w.append(frames[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := listSegments(faults.OS, dir)
	if err != nil || len(seqs) < 3 {
		t.Fatalf("want >= 3 segments, got %v (%v)", seqs, err)
	}
	if err := w.truncate(seqs[len(seqs)-2]); err != nil {
		t.Fatal(err)
	}
	if left, _ := listSegments(faults.OS, dir); !reflect.DeepEqual(left, seqs[len(seqs)-2:]) || w.segments != 2 {
		t.Fatalf("after truncate: segments %v (counted %d), want %v", left, w.segments, seqs[len(seqs)-2:])
	}
	post := walFrames(4, 31)
	if err := w.append(post, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, _, clean := replayAll(t, dir)
	kept := len(got) - len(post)
	if !clean || kept < 1 || kept >= len(frames) {
		t.Fatalf("post-truncate replay = (%d frames, clean=%v)", len(got), clean)
	}
	for i, f := range append(append([]traffic.Frame(nil), frames[len(frames)-kept:]...), post...) {
		if !bytes.Equal(got[i].Data, f.Data) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestWALEmptyAndMissingDir(t *testing.T) {
	// Missing dir: clean empty replay.
	records, clean, err := replayWAL(faults.OS, filepath.Join(t.TempDir(), "nope"), 0, func([]traffic.Frame, []uint16) {})
	if err != nil || !clean || records != 0 {
		t.Fatalf("missing dir: (%d, %v, %v)", records, clean, err)
	}
	// Empty dir likewise.
	records, clean, err = replayWAL(faults.OS, t.TempDir(), 0, func([]traffic.Frame, []uint16) {})
	if err != nil || !clean || records != 0 {
		t.Fatalf("empty dir: (%d, %v, %v)", records, clean, err)
	}
}

func TestFsyncPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{
		{"always", FsyncAlways}, {"interval", FsyncInterval},
		{"", FsyncInterval}, {"none", fsyncNone}, {"NONE", fsyncNone},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = (%v, %v), want %v", tc.in, got, err, tc.want)
		}
		if got.String() == "" {
			t.Errorf("%v has empty String()", got)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestDecodeRecordNeverPanics(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{0xff, 0xff, 0xff, 0xff}, // absurd frame count
		{1, 0, 0, 0},             // count 1, no frame
		{1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0}, // short frame header
	}
	for i, payload := range cases {
		if _, _, err := decodeWALRecord(payload); !errors.Is(err, errWALCorrupt) {
			t.Errorf("case %d: want ErrWALCorrupt, got %v", i, err)
		}
	}
}

func TestRecoverReplaysAckedBatches(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 4}

	st, rs, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotPackets != 0 || rs.WALRecords != 0 {
		t.Fatalf("fresh dir recovered %+v", rs)
	}
	frames := walFrames(64, 13)
	if _, err := st.AddBatch(frames[:32], 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch(frames[32:], 1); err != nil {
		t.Fatal(err)
	}
	ref := surfaceOf(st)
	// No clean shutdown: the WAL alone must reconstruct the store.
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	st2, rs2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.WALRecords != 2 || rs2.WALPackets != 64 || rs2.Torn {
		t.Fatalf("recovery stats %+v", rs2)
	}
	if d := ref.diff(st2); d != "" {
		t.Fatal("recovered store differs from acknowledged state: " + d)
	}
	st2.CloseWAL()
}

func TestRecoverSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 4}
	st, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(60, 17)
	if _, err := st.AddBatch(frames[:30], 1); err != nil {
		t.Fatal(err)
	}
	// Checkpoint covers the first half; WAL holds the second.
	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	// The lag is what a recovery would replay: the hot record the
	// checkpoint left in the log, then the one acked after it.
	if ws := st.WALStats(); !ws.Attached || ws.Records != 1 {
		t.Fatalf("WAL lag after checkpoint: %+v", ws)
	}
	if _, err := st.AddBatch(frames[30:], 1); err != nil {
		t.Fatal(err)
	}
	if ws := st.WALStats(); ws.Records != 2 {
		t.Fatalf("WAL lag = %d records, want 2", ws.Records)
	}
	ref := surfaceOf(st)
	st.CloseWAL()

	st2, rs, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotPackets != 30 || rs.WALPackets != 30 {
		t.Fatalf("recovery split %+v, want 30 + 30", rs)
	}
	if d := ref.diff(st2); d != "" {
		t.Fatal("snapshot+WAL recovery differs from acknowledged state: " + d)
	}
	st2.CloseWAL()
}

// TestRecoverAfterEviction: an untiered durable store that evicted before
// its checkpoint, then acked more batches into the WAL, recovers with every
// acked PacketID naming the same packet and every flow aggregate unchanged.
// The flows that straddle the eviction keep their whole-flow totals, which
// the surviving rows alone cannot rebuild.
func TestRecoverAfterEviction(t *testing.T) {
	frames := tierFrames(t)
	if raceEnabled { // every check is per packet; a third of the scenario keeps the race pass in budget
		frames = frames[:2000]
	}
	dir, mfs := "/data", newMemFS(1)
	cfg := DurableConfig{Dir: dir, Fsync: fsyncNone, Shards: 4}
	st, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var acked []PacketID
	ingest := func(fs []traffic.Frame) {
		for lo := 0; lo < len(fs); lo += 500 {
			hi := min(lo+500, len(fs))
			first, err := st.AddBatch(fs[lo:hi], 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range hi - lo {
				acked = append(acked, first+PacketID(i))
			}
		}
	}
	mid := len(frames) / 2
	ingest(frames[:mid])
	if n := st.EvictBefore(frames[mid/2].TS); n == 0 {
		t.Fatal("nothing evicted")
	}
	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	ingest(frames[mid:])
	type lookup struct {
		sp StoredPacket
		ok bool
	}
	want := make([]lookup, len(acked))
	for i, id := range acked {
		want[i].sp, want[i].ok = st.packetByID(id)
	}
	wantFlows := st.Flows()
	st.CloseWAL()

	rec, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()
	t.Run("acked-ids", func(t *testing.T) {
		moved := 0
		for i, id := range acked {
			sp, ok := rec.packetByID(id)
			if ok != want[i].ok || ok && (sp.TS != want[i].sp.TS || !bytes.Equal(sp.Data, want[i].sp.Data)) {
				if moved++; moved <= 3 {
					t.Errorf("acked packet %d: found=%v after recovery, found=%v before (or its bytes differ)", id, ok, want[i].ok)
				}
			}
		}
		if moved > 0 {
			t.Errorf("%d of %d acked IDs resolve differently after recovery", moved, len(acked))
		}
	})
	t.Run("flows", func(t *testing.T) {
		got := rec.Flows()
		if len(got) != len(wantFlows) {
			t.Fatalf("%d flows after recovery, %d before", len(got), len(wantFlows))
		}
		changed := 0
		for i := range got {
			if got[i] != wantFlows[i] {
				changed++
			}
		}
		if changed > 0 {
			t.Errorf("%d of %d flows changed across recovery", changed, len(got))
		}
	})
}

// TestRecoverTwinFlows checkpoints two flows that tie on first time and key
// hash (an IPv4 flow and its ::ffff:-mapped IPv6 twin): the snapshot must
// order them by key, so Recover loads it and re-checkpoints the same bytes.
func TestRecoverTwinFlows(t *testing.T) {
	dir, mfs := "/data", newMemFS(1)
	cfg := DurableConfig{Dir: dir, Fsync: fsyncNone}
	st, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch(twinFlowFrames(t), 1); err != nil {
		t.Fatal(err)
	}
	fs := st.Flows()
	if len(fs) != 2 || fs[0].Key == fs[1].Key || fs[0].Key.Hash() != fs[1].Key.Hash() || fs[0].First != fs[1].First {
		t.Fatalf("want two distinct flows tied on first time and hash, got %+v", fs)
	}
	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	st.CloseWAL()
	rec, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()
	snaps := matchDir(mfs, dir, "snapshot-*"+snapSuffix)
	if len(snaps) != 1 {
		t.Fatalf("checkpoints: %v", snaps)
	}
	want, err := mfs.ReadFile(filepath.Join(dir, snaps[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	snaps = matchDir(mfs, dir, "snapshot-*"+snapSuffix)
	got, err := mfs.ReadFile(filepath.Join(dir, snaps[len(snaps)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recovered store re-checkpoints %d bytes, the checkpoint holds %d different ones", len(got), len(want))
	}
	if !reflect.DeepEqual(rec.Flows(), fs) {
		t.Errorf("flows after recovery %+v, before %+v", rec.Flows(), fs)
	}
}

// cutFrames is batch b of TestRecoverAcrossCheckpointCut: eight packets,
// the even ones from one flow that runs through every batch, the odd ones
// each a flow of their own. Batch 3 runs backwards in time, below the
// watermark the batches before it left, so ingest clamps its timestamps.
func cutFrames(t testing.TB, b int) []traffic.Frame {
	frames := make([]traffic.Frame, 8)
	for i := range frames {
		ts := time.Duration(10*b+i) * time.Millisecond
		if b == 3 {
			ts -= 15 * time.Millisecond
		}
		src, port := netip.MustParseAddr("10.0.0.1"), uint16(1000)
		if i%2 == 1 {
			src, port = netip.AddrFrom4([4]byte{10, 0, 1, byte(b)}), uint16(2000+i)
		}
		frames[i] = synFrame(t, src, port, ts)
	}
	return frames
}

// TestRecoverAcrossCheckpointCut is the exactly-once test for flows across
// a checkpoint's cut. One flow has packets evicted (or sealed) before the
// checkpoint, packets hot below its cut and packets acked after it. Tiered,
// the checkpoint's replay position is the WAL segment batch 3 opens, whose
// timestamps run backwards, so replay must restart the TS clamp from the
// watermark noted for that segment. Recover, ingest more, crash under every
// mode, recover again: each time the store equals a serial reference built
// by the same operations, byte for byte, with the same Flows().
func TestRecoverAcrossCheckpointCut(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("tiered=%v shards=%d", tiered, shards)
			const dir = "/data"
			cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: shards, SegmentBytes: 256}
			ref, mfs := NewSharded(shards), newMemFS(int64(shards))
			if tiered {
				cfg.Tier = TierPolicy{Dir: "/data/tier", SegmentPackets: 8, MinSealPackets: 1}
				ref.fsys = newMemFS(0)
				if err := ref.EnableTiering(TierPolicy{Dir: "/ref/tier", SegmentPackets: 8, MinSealPackets: 1}); err != nil {
					t.Fatal(err)
				}
			}
			st, _, err := recoverOn(mfs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingest := func(st *Store, from, to int) {
				for b := from; b < to; b++ {
					if _, err := st.AddBatch(cutFrames(t, b), 2); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Evict (or, tiered, seal) batch 0 and half of batch 1, then
			// seal up to batch 3.
			age := func(st *Store) {
				if n := st.EvictBefore(14 * time.Millisecond); n != 12 {
					t.Fatalf("%s: evicted %d packets, want 12", name, n)
				}
				if _, err := st.sealHot(24); tiered && err != nil {
					t.Fatal(err)
				}
			}
			check := func(stage string, rec *Store) {
				if d := surfaceOf(ref).diff(rec); d != "" {
					t.Fatalf("%s, %s: recovered store differs from the reference: %s", name, stage, d)
				}
				if got, want := rec.Flows(), ref.Flows(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s: flows differ:\n got %+v\nwant %+v", name, stage, got, want)
				}
				if got, want := rec.Stats().ColdPackets, ref.Stats().ColdPackets; got != want {
					t.Fatalf("%s, %s: %d cold packets, want %d", name, stage, got, want)
				}
			}

			ingest(st, 0, 6)
			ingest(ref, 0, 6)
			age(st)
			age(ref)
			if err := st.CheckpointDir(dir); err != nil {
				t.Fatal(err)
			}
			if tiered && st.walSegs[0].firstID != 24 {
				t.Fatalf("%s: replay position starts at packet %d, want batch 3's first, 24", name, st.walSegs[0].firstID)
			}
			ingest(st, 6, 8)
			ingest(ref, 6, 8)
			st.CloseWAL()
			rec, rs, err := recoverOn(mfs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if base := uint64(12 + 12*boolByte(tiered)); rs.SnapshotPackets != 48-base || rs.WALPackets != 16 {
				t.Fatalf("%s: recovery %+v, want %d packets below the cut and 16 above", name, rs, 48-base)
			}
			check("first recovery", rec)
			ingest(rec, 8, 10)
			ingest(ref, 8, 10)
			for _, mode := range crashModes {
				again, _, err := recoverOn(mfs.crash(mode), cfg)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, mode, err)
				}
				check(mode.String(), again)
				again.CloseWAL()
			}
		}
	}
}

// TestRecoverRefusesTrimmedWAL: the WAL segment at a checkpoint's replay
// position holds rows the checkpoint counts. Deleted, cut short or
// corrupted, it leaves the log ending below the checkpoint's cut, and
// Recover refuses with an error wrapping errBadSnapshot that names the
// WAL — never a store quietly missing those rows.
func TestRecoverRefusesTrimmedWAL(t *testing.T) {
	const dir = "/data"
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2, SegmentBytes: 256}
	mfs := newMemFS(1)
	st, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 6; b++ {
		if _, err := st.AddBatch(cutFrames(t, b), 1); err != nil {
			t.Fatal(err)
		}
	}
	st.EvictBefore(20 * time.Millisecond)
	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch(cutFrames(t, 6), 1); err != nil {
		t.Fatal(err)
	}
	pos := filepath.Join(dir, segName(st.walSegs[0].seq))
	st.CloseWAL()
	for _, damage := range []string{"deleted", "cut short", "corrupt"} {
		img := mfs.crash(crashKill)
		b, err := img.ReadFile(pos)
		if err != nil {
			t.Fatal(err)
		}
		switch damage {
		case "deleted":
			err = img.Remove(pos)
		case "cut short":
			err = writeMemFile(img, pos, b[:len(b)-3])
		default:
			b[len(b)-3] ^= 0x40
			err = writeMemFile(img, pos, b)
		}
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = recoverOn(img, cfg)
		if !errors.Is(err, errBadSnapshot) || !strings.Contains(err.Error(), dir) {
			t.Errorf("WAL segment at the replay position %s: Recover = %v, want errBadSnapshot naming the WAL", damage, err)
		}
	}
	// Undamaged, the same image recovers.
	rec, _, err := recoverOn(mfs.crash(crashKill), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.CloseWAL()
}

// TestCheckpointFlushesWAL: under fsyncNone the WAL syncs nothing on its
// own, but a checkpoint counts rows that only the log holds, so it flushes
// the log first: a power cut right after it keeps every row it counts.
func TestCheckpointFlushesWAL(t *testing.T) {
	const dir = "/data"
	cfg := DurableConfig{Dir: dir, Fsync: fsyncNone, Shards: 2}
	mfs := newMemFS(1)
	st, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		if _, err := st.AddBatch(cutFrames(t, b), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	rec, rs, err := recoverOn(mfs.crash(crashPowerLoss), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()
	if d := surfaceOf(st).diff(rec); rs.SnapshotPackets != 24 || d != "" {
		t.Fatalf("power cut after a checkpoint: recovered %+v, not the checkpointed store: %s", rs, d)
	}
}

// writeMemFile replaces path's bytes on fsys.
func writeMemFile(fsys faults.FS, path string, b []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err == nil {
		_, err = f.Write(b)
		f.Close()
	}
	return err
}

func TestRecoverTornWALIsPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2}
	st, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(40, 19)
	for i := 0; i < 40; i += 10 {
		if _, err := st.AddBatch(frames[i:i+10], 1); err != nil {
			t.Fatal(err)
		}
	}
	st.CloseWAL()
	// Tear the newest segment's tail.
	seqs, _ := listSegments(faults.OS, dir)
	path := filepath.Join(dir, segName(seqs[len(seqs)-1]))
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, rs, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Torn {
		t.Fatal("torn tail not reported")
	}
	if rs.WALRecords != 3 || rs.WALPackets != 30 {
		t.Fatalf("recovered %+v, want 3 records / 30 packets (prefix)", rs)
	}
	// The recovered store matches a reference built from the same prefix.
	ref := NewSharded(2)
	ref.AddBatch(frames[:30], 1)
	if d := surfaceOf(ref).diff(st2); d != "" {
		t.Fatal("torn recovery is not the acknowledged prefix: " + d)
	}
	st2.CloseWAL()
}

func TestRecoverTornThenCrashAgain(t *testing.T) {
	// The two-crash sequence: a torn tail is recovered, MORE batches are
	// acked, then a second crash. Recovery must surface every acked batch
	// from both generations — the first recovery seals the torn log
	// behind a checkpoint so the old tear can't mask the new segments.
	dir := t.TempDir()
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2}
	st, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(60, 29)
	if _, err := st.AddBatch(frames[:30], 1); err != nil {
		t.Fatal(err)
	}
	st.CloseWAL()
	// Tear: garbage appended to the live segment (a partial record the
	// crash never finished — it was never acked).
	seqs, _ := listSegments(faults.OS, dir)
	path := filepath.Join(dir, segName(seqs[len(seqs)-1]))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("partial record garbage"))
	f.Close()

	st2, rs, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Torn || rs.WALPackets != 30 {
		t.Fatalf("first recovery %+v", rs)
	}
	// Second generation of acked batches, then crash again.
	if _, err := st2.AddBatch(frames[30:], 1); err != nil {
		t.Fatal(err)
	}
	ref := surfaceOf(st2)
	st2.CloseWAL()

	st3, rs3, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs3.Torn {
		t.Fatalf("second recovery still torn: %+v", rs3)
	}
	if got := st3.Stats().Packets; got != 60 {
		t.Fatalf("packets after second crash = %d, want 60 (acked loss!)", got)
	}
	if d := ref.diff(st3); d != "" {
		t.Fatal("second recovery differs from acknowledged state: " + d)
	}
	st3.CloseWAL()
}

// TestRecoverCorruptMidLogThenCrashAgain: bit rot in the middle of the log
// stops replay there, and the acked batches in the segments after it are
// lost with it (a recovered store is a prefix of the acked stream). The
// first recovery drops those segments, so the batches acked after it are
// all a second recovery replays on top of the prefix.
func TestRecoverCorruptMidLogThenCrashAgain(t *testing.T) {
	const dir = "/data"
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2, SegmentBytes: 256}
	mfs := newMemFS(1)
	st, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := st.AddBatch(walFrames(5, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	st.CloseWAL()
	// Two records a segment: the flip tears batch 3, in the second of
	// three segments.
	seqs, _ := listSegments(mfs, dir)
	path := filepath.Join(dir, segName(seqs[1]))
	b, _ := mfs.ReadFile(path)
	b[len(b)-1] ^= 0x01
	if err := writeMemFile(mfs, path, b); err != nil {
		t.Fatal(err)
	}
	st2, rs, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Torn || rs.WALPackets != 15 {
		t.Fatalf("first recovery %+v, want the first three batches and a tear", rs)
	}
	ref := NewSharded(2)
	for _, i := range []int{0, 1, 2, 6, 7} {
		if _, err := ref.AddBatch(walFrames(5, i), 0); err != nil {
			t.Fatal(err)
		}
		if i < 6 {
			continue
		}
		if _, err := st2.AddBatch(walFrames(5, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	st3, rs3, err := recoverOn(mfs.crash(crashPowerLoss), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.CloseWAL()
	if d := surfaceOf(ref).diff(st3); rs3.Torn || d != "" {
		t.Fatalf("second recovery %+v (%d packets) is not the prefix plus the batches acked after it: %s", rs3, st3.Stats().Packets, d)
	}
}

func TestRecoverReshards(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Recover(DurableConfig{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch(walFrames(32, 23), 1); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	st.CloseWAL()
	st2, _, err := Recover(DurableConfig{Dir: dir, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.CloseWAL()
	if st2.numShards() != 8 {
		t.Fatalf("shards = %d, want 8", st2.numShards())
	}
	if st2.Stats().Packets != 32 {
		t.Fatalf("packets = %d, want 32", st2.Stats().Packets)
	}
}

func TestWALStickyError(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(faults.OS, walConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Close the underlying file out from under the WAL: the next append
	// must fail and wedge the log.
	w.f.Close()
	if err := w.append(walFrames(1, 1), nil); err == nil {
		t.Fatal("append on closed file succeeded")
	}
	if w.err == nil {
		t.Fatal("sticky error not set")
	}
	if err := w.append(walFrames(1, 2), nil); !errors.Is(err, w.err) {
		t.Fatal("wedged log accepted another append")
	}
}

func TestCheckpointRefusedOnWedgedWAL(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Recover(DurableConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch(walFrames(8, 3), 1); err != nil {
		t.Fatal(err)
	}
	// Wedge the WAL, then verify batched ingest surfaces the error and
	// refuses the ack.
	st.wal.f.Close()
	if _, err := st.AddBatch(walFrames(8, 4), 1); err == nil {
		t.Fatal("acked a batch the wedged WAL never logged")
	}
	st.CloseWAL()
}

// TestCheckpointDirRefusesOtherDir: a checkpoint truncates the attached
// log, so one published anywhere but beside it would leave the log's
// directory with segments gone that no checkpoint there covers, and the
// next Recover would renumber the survivors from ID 0. It is refused
// before any file operation: every segment stays, nothing is written to
// the other directory, and the log recovers to the same store.
func TestCheckpointDirRefusesOtherDir(t *testing.T) {
	dir, other, copied := t.TempDir(), t.TempDir(), t.TempDir()
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2, SegmentBytes: 600}
	st, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := st.AddBatch(walFrames(5, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.EvictBefore(20 * time.Millisecond); n != 40 {
		t.Fatalf("evicted %d packets, want 40", n)
	}
	segs, err := listSegments(faults.OS, dir)
	if err != nil || len(segs) != 3 {
		t.Fatalf("%d WAL segments (%v), want 3", len(segs), err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(copied, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ref, _, err := Recover(DurableConfig{Dir: copied, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref.CloseWAL()
	for _, d := range []string{other, filepath.Join(dir, "sub"), dir + "/../" + filepath.Base(other)} {
		if err := st.CheckpointDir(d); !errors.Is(err, errCheckpointDir) {
			t.Fatalf("CheckpointDir(%s) = %v, want errCheckpointDir", d, err)
		}
	}
	if ents, _ := os.ReadDir(other); len(ents) != 0 {
		t.Fatalf("the refused checkpoint wrote %d files into the other directory", len(ents))
	}
	if got, _ := listSegments(faults.OS, dir); !slices.Equal(got, segs) {
		t.Fatalf("WAL segments %v after the refused checkpoint, want %v", got, segs)
	}
	st.CloseWAL()
	rec, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()
	if rec.Digest() != ref.Digest() {
		t.Fatalf("the log recovers to another store after the refused checkpoint: %s", surfaceOf(ref).diff(rec))
	}
}

func TestCheckpointCrashBeforeTruncateNoDuplicates(t *testing.T) {
	// The checkpoint window: its rename lands but truncation never runs,
	// leaving on disk every segment below its replay position, whose rows
	// are evicted and whose records hold IDs the checkpoint's flows no
	// longer count. Recovery must start at the position, replay no record
	// twice, and keep every batch acked afterwards across the next crash.
	checkpointCrashMidTruncate(t, 1)
}

func TestCheckpointCrashMidTruncateNoDuplicates(t *testing.T) {
	// Same window, one step later: truncation removed the oldest segment
	// and died, so what is left below the position is a contiguous run
	// that starts after a gap.
	checkpointCrashMidTruncate(t, 2)
}

// checkpointCrashMidTruncate runs a checkpoint whose truncation fails at
// its unlink-th segment removal, then kills the machine and recovers.
func checkpointCrashMidTruncate(t *testing.T, unlink int) {
	const dir = "/data"
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2, SegmentBytes: 256}
	mfs := newMemFS(1)
	st, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(60, 31)
	ingest := func(st *Store, fs []traffic.Frame) {
		for i := 0; i < len(fs); i += 5 {
			if _, err := st.AddBatch(fs[i:i+5], 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(st, frames[:20])
	if err := st.CheckpointDir(dir); err != nil { // a completed checkpoint
		t.Fatal(err)
	}
	ingest(st, frames[20:])
	if n := st.EvictBefore(frames[40].TS); n != 40 {
		t.Fatalf("evicted %d packets, want 40", n)
	}
	before, _ := listSegments(mfs, dir)
	mfs.failOp("remove", dir+"/0", unlink, syscall.EIO)
	if err := st.CheckpointDir(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("CheckpointDir with a failing unlink: %v", err)
	}
	if after, _ := listSegments(mfs, dir); len(after) != len(before)-(unlink-1) || len(after) < 3 {
		t.Fatalf("segments %v before the checkpoint, %v after; want %d removed of several", before, after, unlink-1)
	}
	ref := surfaceOf(st)

	img := mfs.crash(crashKill)
	st2, rs, err := recoverOn(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Torn || rs.SnapshotPackets != 20 || rs.WALPackets != 0 {
		t.Fatalf("recovery %+v, want the 20 hot packets below the cut and nothing torn", rs)
	}
	if got := st2.Stats().Packets; got != 20 {
		t.Fatalf("packets = %d, want 20", got)
	}
	if d := ref.diff(st2); d != "" {
		t.Fatal("recovered store diverged from the acknowledged stream: " + d)
	}
	// New batches acked after the interrupted checkpoint survive the next
	// crash, above the cut.
	if _, err := st2.AddBatch(walFrames(10, 41), 1); err != nil {
		t.Fatal(err)
	}
	ref2 := surfaceOf(st2)
	st3, rs3, err := recoverOn(img.crash(crashPowerLoss), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := ref2.diff(st3); rs3.WALPackets != 10 || d != "" {
		t.Fatalf("post-crash batches lost (%+v): %s", rs3, d)
	}
	st3.CloseWAL()
}

func TestRecoverRefusesLegacySnapshot(t *testing.T) {
	// Checkpoints this build no longer reads: a bare snapshot.clds,
	// written before checkpoints were stamped, stamped checkpoints in
	// snapshot versions 3 to 6, and a v7 header with no replay position,
	// whose rows are in no WAL. Recover must say so rather than start an
	// empty store over checkpointed data, and touch none of them.
	st := NewSharded(2)
	st.AddBatch(walFrames(16, 37), 1)
	for name, snap := range map[string][]byte{
		bareSnapshot: checkpointBytes(t, st),
		snapName(7):  formatFixture(t, "snapshot-v3.clds"),
		snapName(4):  formatFixture(t, "snapshot-v4-untiered.clds"),
		snapName(5):  formatFixture(t, "snapshot-v5-checkpoint.clds"),
		snapName(6):  formatFixture(t, "snapshot-v6-checkpoint.clds"),
		snapName(1):  handSnapshot([8]uint64{0, 0, 16, 16, 0, 0, 0, 0}),
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Recover(DurableConfig{Dir: dir, Shards: 2}); !errors.Is(err, errBadSnapshot) {
			t.Fatalf("Recover over %s: err = %v, want errBadSnapshot", name, err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, snap) {
			t.Fatalf("refused recovery touched %s: %v", name, err)
		}
		if seqs, _ := listSegments(faults.OS, dir); len(seqs) != 0 {
			t.Fatalf("refused recovery over %s opened a WAL: segments %v", name, seqs)
		}
	}

	// Beside a stamped checkpoint the bare legacy file is ignored.
	dir := t.TempDir()
	durable, _, err := Recover(DurableConfig{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := durable.AddBatch(walFrames(16, 37), 1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bareSnapshot), checkpointBytes(t, st), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := durable.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	durable.CloseWAL()
	st2, rs, err := Recover(DurableConfig{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.CloseWAL()
	if d := surfaceOf(st).diff(st2); rs.SnapshotPackets != 16 || d != "" {
		t.Fatalf("stamped checkpoint beside a legacy file recovered %d packets: %s", rs.SnapshotPackets, d)
	}
}

func TestSerialIngestRefusesAckOnWedgedWAL(t *testing.T) {
	// The serial path shares the batched path's contract: a WAL failure
	// refuses the frame instead of acknowledging data that is neither
	// durable nor (any longer) stored.
	dir := t.TempDir()
	st, _, err := Recover(DurableConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestFrame(&traffic.Frame{Data: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	st.wal.f.Close() // wedge the log
	before := st.Stats().Packets
	if _, err := st.IngestFrame(&traffic.Frame{Data: []byte{4, 5, 6}}); err == nil {
		t.Fatal("acked a frame the wedged WAL never logged")
	}
	if got := st.Stats().Packets; got != before {
		t.Fatalf("refused frame still landed in memory (%d -> %d packets)", before, got)
	}
	st.CloseWAL()
}

func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.clds.tmp123", "snapshot.clds.tmp9", "other.file"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := removeStaleTemps(faults.OS, dir, "snapshot.clds"); n != 2 {
		t.Fatalf("removed %d temps, want 2", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "other.file")); err != nil {
		t.Fatal("unrelated file removed")
	}
}
