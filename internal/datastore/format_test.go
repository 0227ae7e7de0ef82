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

// testdata/format holds files written by PR 17's hand-rolled encoders,
// before they moved onto internal/frame: one WAL segment (two records,
// the second with nil links), a v2 snapshot of an untiered store, and a
// tiered store's directory — its v3 snapshot, one v2 segment and the
// manifest naming it. The v4 snapshots hold the same two stores: each is
// its v2 or v3 source as the v3-era reader loaded it (the v3 one with tier/
// attached), saved by the v4 writer; the v5 exports are the v4 ones with
// the v5 header (cut ID = base ID + packets, no replay position). The v5
// checkpoint is a store recovered from the WAL segment, with one event
// added and its first two packets evicted, checkpointed beside it. The v6
// files are the three v5 ones as the v5 reader loaded them (the checkpoint
// recovered beside the WAL segment), written by the v6 writer: the same
// stores, their flows without packet-ID lists. Each test below decodes a
// file with the current code and re-encodes it; every byte must come back.
// A deliberate format change bumps a version and adds fixtures, it does not
// regenerate these. The v2 to v5 snapshots and seg-v1.clsg stay as
// fixtures a retired format must be refused on.

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
	w, err := OpenWAL(WALConfig{Dir: t.TempDir(), Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	records, clean, err := ReplayWALFrom(src, 0, func(frames []traffic.Frame, links []uint16) {
		if err := w.Append(frames, links); err != nil {
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

// fixtureTierDir copies the pinned tier directory (manifest and segment)
// into a fresh directory a store can attach.
func fixtureTierDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{tierManifestName, tierSegName(0)} {
		if err := os.WriteFile(filepath.Join(dir, name), formatFixture(t, "tier", name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestFormatSnapshotsPinned(t *testing.T) {
	t.Run("untiered", func(t *testing.T) {
		want := formatFixture(t, "snapshot-v6-untiered.clds")
		st, err := Load(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(storeBytes(t, st), want) {
			t.Fatal("re-saved untiered snapshot differs from the pinned one")
		}
	})
	t.Run("tiered", func(t *testing.T) {
		// The recovery order: load the hot tier, then attach the cold one.
		want := formatFixture(t, "snapshot-v6-tiered.clds")
		st, err := Load(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.EnableTiering(TierPolicy{Dir: fixtureTierDir(t)}); err != nil {
			t.Fatal(err)
		}
		if ss := st.Stats(); ss.Packets != 8 || ss.ColdPackets != 40 {
			t.Fatalf("recovered %d hot + %d cold packets, want 8 + 40", ss.Packets, ss.ColdPackets)
		}
		if !bytes.Equal(storeBytes(t, st), want) {
			t.Fatal("re-saved tiered snapshot differs from the pinned one")
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		// Recovered beside the WAL segment it was taken over, the
		// checkpoint checkpoints again to its own bytes.
		want := formatFixture(t, "snapshot-v6-checkpoint.clds")
		dir := t.TempDir()
		for name, b := range map[string][]byte{segName(1): formatFixture(t, segName(1)), snapName(1): want} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, rs, err := Recover(DurableConfig{Dir: dir, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer st.CloseWAL()
		if ss := st.Stats(); ss.Packets != 3 || ss.Flows != 2 || ss.Events != 1 || rs.SnapshotPackets != 3 || rs.WALPackets != 0 {
			t.Fatalf("recovered %+v (%+v), want 3 hot packets below the cut, 2 flows, 1 event", ss, rs)
		}
		if _, err := Load(bytes.NewReader(want)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("Load of a checkpoint: err = %v, want ErrBadSnapshot", err)
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
			if _, err := Load(bytes.NewReader(formatFixture(t, name))); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("Load of %s: err = %v, want ErrBadSnapshot", name, err)
			}
		}
		dir := t.TempDir()
		for name, b := range map[string][]byte{segName(1): formatFixture(t, segName(1)), snapName(1): formatFixture(t, "snapshot-v5-checkpoint.clds")} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := Recover(DurableConfig{Dir: dir, Shards: 2}); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("Recover over the v5 checkpoint: err = %v, want ErrBadSnapshot", err)
		}
	})
}

func TestFormatSegmentAndManifestPinned(t *testing.T) {
	want := formatFixture(t, "tier", tierSegName(0))
	rows, err := decodeSegmentRows(want)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := encodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 || !bytes.Equal(got, want) {
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
// encoded them, which PR 17 read back) and a v2 blob whose header says 1,
// checksummed correctly so that the version is the only objection.
func TestParseSegmentRefusesVersion1(t *testing.T) {
	relabelled := formatFixture(t, "tier", tierSegName(0))
	binary.LittleEndian.PutUint16(relabelled[4:6], 1)
	binary.LittleEndian.PutUint32(relabelled[44:48], frame.Sum(relabelled[:44]))
	for name, b := range map[string][]byte{"v1 blob": formatFixture(t, "seg-v1.clsg"), "v1 header": relabelled} {
		if _, err := parseSegment(b); !errors.Is(err, errSegmentCorrupt) {
			t.Errorf("%s: parseSegment err = %v, want ErrSegmentCorrupt", name, err)
		}
		if _, err := openSegMeta(b); !errors.Is(err, errSegmentCorrupt) {
			t.Errorf("%s: attach err = %v, want ErrSegmentCorrupt", name, err)
		}
	}
}
