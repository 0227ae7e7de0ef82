package datastore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"campuslab/internal/faults"
	"campuslab/internal/frame"
	"campuslab/internal/traffic"
)

// testdata/format holds files written by the hand-rolled encoders that
// preceded internal/frame: one WAL segment (two records, the second with
// nil links), a v2 snapshot of an untiered store, and a tiered store's
// directory — its v3 snapshot, one v2 segment and the manifest naming it.
// Later snapshot versions were derived from these: the v4 snapshots were
// the v2 and v3 ones as the v3-era reader loaded them (the v3 one with
// tier/ attached), saved by the v4 writer; the v5 exports are the v4 ones
// with the v5 header; the v5 checkpoint is a store recovered from the WAL
// segment, with one event added and its first two packets evicted,
// checkpointed beside it; the v6 checkpoint is the v5 one recovered beside
// the WAL segment by the v5 reader and checkpointed by the v6 writer (flows
// without packet-ID lists). The v7 checkpoint is the v6 one recovered
// beside the WAL segment by the v6 reader and checkpointed by the v7
// writer: the same store, its header without the packet count (a snapshot
// is a checkpoint only since v7). Each test below decodes a file with the
// current code and re-encodes it; every byte must come back. A deliberate
// format change bumps a version and adds fixtures, it does not regenerate
// these. The v2 to v6 snapshots, seg-v1.clsg and seg-v2-deflate.clsg stay
// as fixtures a retired format must be refused on. The tier/ segment was
// first a v2 one compress/flate's streams wrote; seg-v2-deflate.clsg is
// its rows as internal/deflate's v2 writer encoded them, and seg-v3.clsg
// — now also the tier/ segment — the same rows as the v3 writer encodes
// them, summary column and per-block CRCs included.

func formatFixture(t testing.TB, name ...string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(append([]string{"testdata", "format"}, name...)...))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFormatWALSegmentPinned(t *testing.T) {
	want := formatFixture(t, segName(1))
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, segName(1)), want, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := openWAL(faults.OS, walConfig{Dir: t.TempDir(), Fsync: fsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	records, clean, err := replayWAL(faults.OS, src, 0, func(frames []traffic.Frame, links []uint16) {
		if err := w.append(frames, links); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil || !clean || records != 2 {
		t.Fatalf("replay: %d records, clean=%v, err %v", records, clean, err)
	}
	w.Close()
	got, err := os.ReadFile(filepath.Join(w.cfg.Dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-appended WAL segment differs from the pinned one")
	}
}

func TestFormatSnapshotsPinned(t *testing.T) {
	// recoverBeside recovers a checkpoint file beside the pinned WAL
	// segment it was taken over.
	recoverBeside := func(t *testing.T, snap []byte) (string, *Store, RecoveryStats, error) {
		dir := t.TempDir()
		for name, b := range map[string][]byte{segName(1): formatFixture(t, segName(1)), snapName(1): snap} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, rs, err := Recover(DurableConfig{Dir: dir, Shards: 2})
		return dir, st, rs, err
	}
	t.Run("checkpoint", func(t *testing.T) {
		// Recovered beside the WAL segment it was taken over, the
		// checkpoint checkpoints again to its own bytes.
		want := formatFixture(t, "snapshot-v7-checkpoint.clds")
		dir, st, rs, err := recoverBeside(t, want)
		if err != nil {
			t.Fatal(err)
		}
		defer st.CloseWAL()
		if ss := st.Stats(); ss.Packets != 3 || ss.Flows != 2 || ss.Events != 1 || rs.SnapshotPackets != 3 || rs.WALPackets != 0 {
			t.Fatalf("recovered %+v (%+v), want 3 hot packets below the cut, 2 flows, 1 event", ss, rs)
		}
		if err := st.CheckpointDir(dir); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, snapName(2))); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("re-checkpointed snapshot differs from the pinned one (%v)", err)
		}
	})
	t.Run("v5-refused", func(t *testing.T) {
		// The v5 flow record carried an ID list; its reader is gone.
		for _, name := range []string{"snapshot-v5-untiered.clds", "snapshot-v5-tiered.clds"} {
			if _, _, _, err := load(bytes.NewReader(formatFixture(t, name)), 0); !errors.Is(err, errBadSnapshot) {
				t.Errorf("load of %s: err = %v, want errBadSnapshot", name, err)
			}
		}
		if _, _, _, err := recoverBeside(t, formatFixture(t, "snapshot-v5-checkpoint.clds")); !errors.Is(err, errBadSnapshot) {
			t.Errorf("Recover over the v5 checkpoint: err = %v, want errBadSnapshot", err)
		}
	})
	t.Run("v6-refused", func(t *testing.T) {
		// The v6 header carried a packet count for the export; its reader
		// is gone.
		if _, _, _, err := recoverBeside(t, formatFixture(t, "snapshot-v6-checkpoint.clds")); !errors.Is(err, errBadSnapshot) {
			t.Errorf("Recover over the v6 checkpoint: err = %v, want errBadSnapshot", err)
		}
	})
}

// TestFormatSegmentAndManifestPinned: the pinned segment (tier/, the same
// bytes as seg-v3.clsg) decodes to its 40 rows and re-encodes byte for
// byte, and the manifest naming it re-writes to its own bytes.
func TestFormatSegmentAndManifestPinned(t *testing.T) {
	pinned := formatFixture(t, "tier", tierSegName(0))
	rows, err := decodeSegmentRows(pinned)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := encodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	if want := formatFixture(t, "seg-v3.clsg"); len(rows) != 40 || !bytes.Equal(got, want) || !bytes.Equal(pinned, want) {
		t.Fatalf("%d rows; re-encoded segment differs from the pinned one", len(rows))
	}

	wantManifest := formatFixture(t, "tier", tierManifestName)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tierManifestName), wantManifest, 0o644); err != nil {
		t.Fatal(err)
	}
	sealedBelow, nextSeq, names, ok, err := loadManifest(faults.OS, dir)
	if err != nil || !ok || sealedBelow != 40 || len(names) != 1 || names[0] != tierSegName(0) {
		t.Fatalf("manifest: below %d, next %d, names %v, ok %v, err %v", sealedBelow, nextSeq, names, ok, err)
	}
	tr := &tier{dir: dir, fsys: faults.OS, nextSeq: nextSeq}
	if err := tr.writeManifestLocked(sealedBelow, []*tierSegment{{name: names[0]}}); err != nil {
		t.Fatal(err)
	}
	if gotManifest, _ := os.ReadFile(filepath.Join(dir, tierManifestName)); !bytes.Equal(gotManifest, wantManifest) {
		t.Fatal("re-written manifest differs from the pinned one")
	}
}

// TestParseSegmentRefusesVersion1: the v1 reader is gone, so a v1 segment
// is a corrupt segment like any other unknown version — both the real
// thing (seg-v1.clsg: the pinned segment's 40 rows as PR 17's v1 writer
// encoded them, which PR 17 read back) and a v3 blob whose header says 1,
// checksummed correctly so that the version is the only objection.
func TestParseSegmentRefusesVersion1(t *testing.T) {
	assertSegmentsRefused(t, map[string][]byte{"v1 blob": formatFixture(t, "seg-v1.clsg"), "v1 header": relabelled(t, 1)})
}

// TestParseSegmentRefusesVersion2: the v2 reader (no summary column, no
// per-block CRCs) is gone too — seg-v2-deflate.clsg is the pinned rows as
// the last v2 writer encoded them.
func TestParseSegmentRefusesVersion2(t *testing.T) {
	assertSegmentsRefused(t, map[string][]byte{"v2 blob": formatFixture(t, "seg-v2-deflate.clsg"), "v2 header": relabelled(t, 2)})
}

// relabelled is the pinned segment with its header's version set to v and
// the header checksum redone.
func relabelled(t *testing.T, v uint16) []byte {
	b := formatFixture(t, "tier", tierSegName(0))
	binary.LittleEndian.PutUint16(b[4:6], v)
	binary.LittleEndian.PutUint32(b[44:48], frame.Sum(b[:44]))
	return b
}

func assertSegmentsRefused(t *testing.T, blobs map[string][]byte) {
	t.Helper()
	for name, b := range blobs {
		if _, err := parseSegment(b); !errors.Is(err, errSegmentCorrupt) {
			t.Errorf("%s: parseSegment err = %v, want ErrSegmentCorrupt", name, err)
		}
		if _, err := openSegMeta(b); !errors.Is(err, errSegmentCorrupt) {
			t.Errorf("%s: attach err = %v, want ErrSegmentCorrupt", name, err)
		}
	}
}
