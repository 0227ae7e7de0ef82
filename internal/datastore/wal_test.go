package datastore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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

// replayAll collects every replayed frame from dir.
func replayAll(t *testing.T, dir string) ([]traffic.Frame, []uint16, uint64, bool) {
	t.Helper()
	var frames []traffic.Frame
	var links []uint16
	records, clean, err := ReplayWALFrom(dir, 0, func(fs []traffic.Frame, ls []uint16) {
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
	w, err := OpenWAL(WALConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := walFrames(50, 7)
	links := make([]uint16, len(want))
	for i := range links {
		links[i] = uint16(i % 4)
	}
	for i := 0; i < len(want); i += 10 {
		if err := w.Append(want[i:i+10], links[i:i+10]); err != nil {
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
	w, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 256, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := walFrames(40, 3)
	for i := range want {
		if err := w.Append(want[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
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
	w, err := OpenWAL(WALConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(n, 11)
	for i := range frames {
		if err := w.Append(frames[i:i+1], nil); err != nil {
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
	seqs, _ := listSegments(dir)
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
	w, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 256, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(30, 5)
	for i := range frames {
		if err := w.Append(frames[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(dir)
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
	first, _ := replaySegment(filepath.Join(dir, segName(seqs[0])), seqs[0], func([]traffic.Frame, []uint16) {})
	if records != first {
		t.Fatalf("replayed %d records, want first segment's %d", records, first)
	}
}

func TestWALTruncateResetsLog(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 256, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(20, 9)
	for i := range frames {
		if err := w.Append(frames[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.truncate(); err != nil {
		t.Fatal(err)
	}
	if w.records != 0 || w.bytes != 0 {
		t.Fatalf("lag after truncate: %d records, %d bytes", w.records, w.bytes)
	}
	// Appends after truncation replay alone.
	post := walFrames(4, 31)
	if err := w.Append(post, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, records, clean := replayAll(t, dir)
	if !clean || records != 1 || len(got) != 4 {
		t.Fatalf("post-truncate replay = (%d records, %d frames, clean=%v)", records, len(got), clean)
	}
	for i := range post {
		if !bytes.Equal(got[i].Data, post[i].Data) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestWALEmptyAndMissingDir(t *testing.T) {
	// Missing dir: clean empty replay.
	records, clean, err := ReplayWALFrom(filepath.Join(t.TempDir(), "nope"), 0, func([]traffic.Frame, []uint16) {})
	if err != nil || !clean || records != 0 {
		t.Fatalf("missing dir: (%d, %v, %v)", records, clean, err)
	}
	// Empty dir likewise.
	records, clean, err = ReplayWALFrom(t.TempDir(), 0, func([]traffic.Frame, []uint16) {})
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
		{"", FsyncInterval}, {"none", FsyncNone}, {"NONE", FsyncNone},
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

// storeBytes serializes a store for byte-identical comparison.
func storeBytes(t *testing.T, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	ref := storeBytes(t, st)
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
	if !bytes.Equal(ref, storeBytes(t, st2)) {
		t.Fatal("recovered store differs from acknowledged state")
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
	if ws := st.WALStats(); !ws.Attached || ws.Records != 0 {
		t.Fatalf("WAL lag after checkpoint: %+v", ws)
	}
	if _, err := st.AddBatch(frames[30:], 1); err != nil {
		t.Fatal(err)
	}
	if ws := st.WALStats(); ws.Records != 1 {
		t.Fatalf("WAL lag = %d records, want 1", ws.Records)
	}
	ref := storeBytes(t, st)
	st.CloseWAL()

	st2, rs, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotPackets != 30 || rs.WALPackets != 30 {
		t.Fatalf("recovery split %+v, want 30 + 30", rs)
	}
	if !bytes.Equal(ref, storeBytes(t, st2)) {
		t.Fatal("snapshot+WAL recovery differs from acknowledged state")
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
	dir := t.TempDir()
	cfg := DurableConfig{Dir: dir, Fsync: FsyncNone, Shards: 4}
	st, _, err := Recover(cfg)
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
		want[i].sp, want[i].ok = st.Packet(id)
	}
	wantFlows := st.Flows()
	st.CloseWAL()

	rec, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()
	t.Run("acked-ids", func(t *testing.T) {
		moved := 0
		for i, id := range acked {
			sp, ok := rec.Packet(id)
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
			g, w := &got[i], &wantFlows[i]
			if g.Key != w.Key || g.Packets != w.Packets || g.Bytes != w.Bytes || !reflect.DeepEqual(g.PacketIDs(), w.PacketIDs()) {
				changed++
			}
		}
		if changed > 0 {
			t.Errorf("%d of %d flows changed key, Packets, Bytes or PacketIDs across recovery", changed, len(got))
		}
	})
}

// TestRecoverTwinFlows checkpoints two flows that tie on first time and key
// hash (an IPv4 flow and its ::ffff:-mapped IPv6 twin): the snapshot must
// order them by key, so Recover loads it and re-saves the same bytes.
func TestRecoverTwinFlows(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{Dir: dir, Fsync: FsyncNone}
	st, _, err := Recover(cfg)
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
	rec, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("checkpoints: %v", snaps)
	}
	want, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rec.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("recovered store re-saves %d bytes, the checkpoint holds %d different ones", got.Len(), len(want))
	}
	if !reflect.DeepEqual(rec.Flows(), fs) {
		t.Errorf("flows after recovery %+v, before %+v", rec.Flows(), fs)
	}
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
	seqs, _ := listSegments(dir)
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
	ref.addBatch(frames[:30], nil, 1)
	if !bytes.Equal(storeBytes(t, ref), storeBytes(t, st2)) {
		t.Fatal("torn recovery is not the acknowledged prefix")
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
	seqs, _ := listSegments(dir)
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
	ref := storeBytes(t, st2)
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
	if !bytes.Equal(ref, storeBytes(t, st3)) {
		t.Fatal("second recovery differs from acknowledged state")
	}
	st3.CloseWAL()
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
	w, err := OpenWAL(WALConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Close the underlying file out from under the WAL: the next append
	// must fail and wedge the log.
	w.f.Close()
	if err := w.Append(walFrames(1, 1), nil); err == nil {
		t.Fatal("append on closed file succeeded")
	}
	if w.stickyErr() == nil {
		t.Fatal("sticky error not set")
	}
	if err := w.Append(walFrames(1, 2), nil); !errors.Is(err, w.stickyErr()) {
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
	st.wal.Load().f.Close()
	if _, err := st.AddBatch(walFrames(8, 4), 1); err == nil {
		t.Fatal("acked a batch the wedged WAL never logged")
	}
	st.CloseWAL()
}

func TestCheckpointCrashBeforeTruncateNoDuplicates(t *testing.T) {
	// The nastiest checkpoint window: the snapshot's atomic rename lands
	// but the process dies before truncation, leaving WAL segments on
	// disk whose every record is already inside the snapshot. The
	// coverage stamp in the snapshot name must stop recovery from
	// replaying them on top of the data they are part of.
	dir := t.TempDir()
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2}
	st, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(60, 31)
	if _, err := st.AddBatch(frames[:20], 1); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckpointDir(dir); err != nil { // a completed checkpoint
		t.Fatal(err)
	}
	if _, err := st.AddBatch(frames[20:], 1); err != nil {
		t.Fatal(err)
	}
	// Crash mid-checkpoint: replicate CheckpointDir up to and including
	// the snapshot rename, then die before truncate runs.
	w := st.wal.Load()
	if err := st.SaveFile(filepath.Join(dir, snapName(w.seq))); err != nil {
		t.Fatal(err)
	}
	ref := storeBytes(t, st)
	st.CloseWAL()

	st2, rs, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Torn {
		t.Fatalf("recovery reported torn: %+v", rs)
	}
	if rs.WALRecords != 0 {
		t.Fatalf("replayed %d covered records on top of the snapshot (duplicates)", rs.WALRecords)
	}
	if got := st2.Stats().Packets; got != 60 {
		t.Fatalf("packets = %d, want 60", got)
	}
	if !bytes.Equal(ref, storeBytes(t, st2)) {
		t.Fatal("recovered store diverged from acknowledged stream")
	}
	// New batches acked after the interrupted checkpoint must land in
	// segments the stamp does not cover — and survive the next crash.
	if _, err := st2.AddBatch(walFrames(10, 41), 1); err != nil {
		t.Fatal(err)
	}
	ref2 := storeBytes(t, st2)
	st2.CloseWAL()
	st3, rs3, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs3.WALRecords != 1 || !bytes.Equal(ref2, storeBytes(t, st3)) {
		t.Fatalf("post-crash batches lost (replayed %d records)", rs3.WALRecords)
	}
	st3.CloseWAL()
}

func TestCheckpointCrashMidTruncateNoDuplicates(t *testing.T) {
	// Same window, one step later: truncation got partway, removing the
	// oldest covered segment and dying — the surviving covered segments
	// are a contiguous suffix, exactly the shape a gap check can never
	// catch. The coverage stamp must skip them all.
	dir := t.TempDir()
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2, SegmentBytes: 256}
	st, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(40, 43)
	for i := 0; i < len(frames); i += 10 {
		if _, err := st.AddBatch(frames[i:i+10], 1); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("want >= 3 segments for a partial truncation, got %d", len(seqs))
	}
	w := st.wal.Load()
	if err := st.SaveFile(filepath.Join(dir, snapName(w.seq))); err != nil {
		t.Fatal(err)
	}
	ref := storeBytes(t, st)
	st.CloseWAL()
	// Truncation's first unlink (oldest segment) happened; then the kill.
	if err := os.Remove(filepath.Join(dir, segName(seqs[0]))); err != nil {
		t.Fatal(err)
	}

	st2, rs, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.WALRecords != 0 {
		t.Fatalf("replayed %d covered records (duplicates)", rs.WALRecords)
	}
	if !bytes.Equal(ref, storeBytes(t, st2)) {
		t.Fatal("recovered store diverged from acknowledged stream")
	}
	st2.CloseWAL()
}

func TestRecoverRefusesLegacySnapshot(t *testing.T) {
	// Two checkpoints this build no longer reads: a bare snapshot.clds,
	// written before checkpoints were coverage-stamped, and a stamped
	// checkpoint in snapshot version 3. Recover must say so rather than
	// start an empty store over checkpointed data, and touch neither.
	st := NewSharded(2)
	st.addBatch(walFrames(16, 37), nil, 1)
	for name, snap := range map[string][]byte{
		bareSnapshot: storeBytes(t, st),
		snapName(7):  formatFixture(t, "snapshot-v3.clds"),
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Recover(DurableConfig{Dir: dir, Shards: 2}); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("Recover over %s: err = %v, want ErrBadSnapshot", name, err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, snap) {
			t.Fatalf("refused recovery touched %s: %v", name, err)
		}
		if seqs, _ := listSegments(dir); len(seqs) != 0 {
			t.Fatalf("refused recovery over %s opened a WAL: segments %v", name, seqs)
		}
	}

	// Beside a stamped checkpoint the bare legacy file is ignored.
	dir := t.TempDir()
	if err := st.SaveFile(filepath.Join(dir, bareSnapshot)); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	st2, rs, err := Recover(DurableConfig{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.CloseWAL()
	if rs.SnapshotPackets != 16 || !bytes.Equal(storeBytes(t, st), storeBytes(t, st2)) {
		t.Fatalf("stamped checkpoint beside a legacy file recovered %d packets", rs.SnapshotPackets)
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
	st.wal.Load().f.Close() // wedge the log
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
	if n := removeStaleTemps(dir, "snapshot.clds"); n != 2 {
		t.Fatalf("removed %d temps, want 2", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "other.file")); err != nil {
		t.Fatal("unrelated file removed")
	}
}
