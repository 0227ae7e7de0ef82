package datastore

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"campuslab/internal/traffic"
)

// A durable store couples the in-memory sharded store with a snapshot file
// and a write-ahead log in one directory:
//
//	<dir>/snapshot-<seq>.clds   the newest checkpoint (v2 snapshot format;
//	                            v3 once a cold tier is attached)
//	<dir>/<seq>.wal             segments holding every acked batch since
//
// Recover rebuilds the store as snapshot ⊕ WAL replay; CheckpointDir
// writes a fresh snapshot and truncates the log. Between checkpoints,
// every acked AddBatch is WAL-logged before its PacketID is returned, so a
// hard kill at any instant loses nothing that was acknowledged (under
// FsyncAlways; weaker policies trade the power-loss window for speed —
// see FsyncPolicy).
//
// The <seq> stamped into the snapshot name is the WAL segment sequence the
// snapshot covers: the checkpoint's single atomic rename publishes the
// data and the coverage watermark together, and Recover replays only
// segments newer than the stamp. Without the stamp, a crash between the
// snapshot rename and the end of truncation would leave already-covered
// segments on disk and the next recovery would replay every acked batch
// since the previous checkpoint twice.

// snapSuffix ends every checkpoint file name.
const snapSuffix = ".clds"

// bareSnapshot is the pre-watermark checkpoint name. It says nothing
// about WAL coverage and is no longer read: Recover refuses a directory
// where it is the only checkpoint rather than start empty over it.
const bareSnapshot = "snapshot" + snapSuffix

// snapName formats a coverage-stamped checkpoint name; names sort in
// coverage order.
func snapName(covered uint64) string {
	return fmt.Sprintf("snapshot-%016x%s", covered, snapSuffix)
}

// parseSnapName inverts snapName; ok=false for foreign files.
func parseSnapName(name string) (uint64, bool) {
	const prefix = "snapshot-"
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), snapSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	covered, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return covered, true
}

// findSnapshot picks the checkpoint Recover loads: the stamped snapshot
// with the highest covered sequence wins (an interrupted checkpoint can
// leave older ones behind). A directory whose only checkpoint is a legacy
// bare snapshot.clds is an error wrapping ErrBadSnapshot.
func findSnapshot(dir string) (path string, covered uint64, ok bool, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, false, err
	}
	legacy := false
	for _, e := range ents {
		if c, stamped := parseSnapName(e.Name()); stamped && (!ok || c > covered) {
			covered, ok = c, true
		}
		legacy = legacy || e.Name() == bareSnapshot
	}
	if ok {
		return filepath.Join(dir, snapName(covered)), covered, true, nil
	}
	if legacy {
		return "", 0, false, fmt.Errorf("%w: %s is an unstamped legacy checkpoint, which this build does not read",
			ErrBadSnapshot, filepath.Join(dir, bareSnapshot))
	}
	return "", 0, false, nil
}

// DurableConfig parameterizes a durable store directory.
type DurableConfig struct {
	// Dir is the durability root (snapshot + WAL segments).
	Dir string
	// Fsync is the WAL durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SegmentBytes: see WALConfig.
	SegmentBytes int64
	// Shards fixes the recovered store's shard count (0 = auto).
	Shards int
	// Workers bounds replay parse fan-out (0 = GOMAXPROCS).
	Workers int
	// Tier, when Tier.Dir is non-empty, attaches the cold tier after WAL
	// replay: sealed segments are re-registered, hot rows at or below the
	// seal watermark (re-ingested by replay) are trimmed so nothing is
	// duplicated, and subsequent ingest spills to Tier.Dir per the policy.
	Tier TierPolicy
}

// RecoveryStats reports what Recover rebuilt.
type RecoveryStats struct {
	// SnapshotPackets came from the checkpoint (0 when none existed).
	SnapshotPackets uint64
	// WALRecords / WALPackets were replayed from the log on top.
	WALRecords, WALPackets uint64
	// Torn reports that replay stopped early at a torn tail or corrupt
	// frame; everything before the stop point was applied.
	Torn bool
}

// Recover opens (or initializes) the durable directory: stale snapshot
// temp files are swept, the newest snapshot is loaded at cfg.Shards, the
// WAL is replayed on top — both through addBatch, stopping cleanly at a
// torn tail — and a fresh log segment is attached for new writes. The
// returned store acknowledges every subsequent batch through the WAL.
func Recover(cfg DurableConfig) (*Store, RecoveryStats, error) {
	var rs RecoveryStats
	if cfg.Dir == "" {
		return nil, rs, fmt.Errorf("datastore: recover: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, rs, fmt.Errorf("datastore: recover: %w", err)
	}
	removeStaleTemps(cfg.Dir, "snapshot*"+snapSuffix)

	snapPath, covered, haveSnap, err := findSnapshot(cfg.Dir)
	if err != nil {
		return nil, rs, fmt.Errorf("datastore: recover: %w", err)
	}
	var st *Store
	if haveSnap {
		st, err = loadFile(snapPath, cfg.Shards, cfg.Workers)
		if err != nil {
			// SaveFile publishes snapshots atomically, so a corrupt
			// snapshot is real damage, not a crash artifact: refuse to
			// guess rather than silently drop checkpointed data.
			return nil, rs, fmt.Errorf("datastore: recover snapshot: %w", err)
		}
		rs.SnapshotPackets = st.Stats().Packets
	} else {
		st = NewSharded(cfg.Shards)
	}

	var walBytes uint64
	records, clean, err := ReplayWALFrom(cfg.Dir, covered, func(frames []traffic.Frame, links []uint16) {
		st.addBatch(frames, links, cfg.Workers)
		rs.WALPackets += uint64(len(frames))
		for i := range frames {
			walBytes += uint64(len(frames[i].Data))
		}
	})
	if err != nil {
		return nil, rs, err
	}
	rs.WALRecords = records
	rs.Torn = !clean

	// Attach the cold tier after replay and before the WAL reopens: replay
	// re-ingested every acked batch since the checkpoint, including rows
	// that a pre-crash seal already moved into segments; EnableTiering
	// trims the hot tier below the manifest's watermark so those rows are
	// served from cold storage exactly once. Attaching before OpenWAL also
	// means a torn-log checkpoint below writes the tiered snapshot format.
	if cfg.Tier.Dir != "" {
		if err := st.EnableTiering(cfg.Tier); err != nil {
			return nil, rs, fmt.Errorf("datastore: recover tier: %w", err)
		}
	}

	w, err := OpenWAL(WALConfig{
		Dir: cfg.Dir, Fsync: cfg.Fsync, SegmentBytes: cfg.SegmentBytes,
		StartSeq: covered + 1,
	})
	if err != nil {
		return nil, rs, err
	}
	// The replayed-but-not-checkpointed records still count as WAL lag:
	// they are only covered once the next checkpoint lands.
	w.records = records
	w.bytes = walBytes
	st.attachWAL(w)
	if !clean {
		// Seal a torn log immediately: the damaged segment stays on disk
		// until a checkpoint covers it, and a LATER recovery would stop at
		// the old tear and discard acked batches appended after it. A
		// fresh snapshot + truncation makes the recovered prefix the new
		// ground truth before any new write is acknowledged.
		if err := st.CheckpointDir(cfg.Dir); err != nil {
			st.CloseWAL()
			return nil, rs, fmt.Errorf("datastore: recover: sealing torn wal: %w", err)
		}
	}
	return st, rs, nil
}

// attachWAL routes every subsequent acked batch through w: the record is
// durable (per w's fsync policy) before the batch's first PacketID is
// returned. Attach before concurrent ingest begins.
func (s *Store) attachWAL(w *WAL) {
	s.ingestMu.Lock()
	s.wal.Store(w)
	s.ingestMu.Unlock()
}

// WALStats describes the attached log (zero value when none).
type WALStats struct {
	// Attached reports whether a WAL is wired in.
	Attached bool
	// Records / Bytes are the appended-but-not-checkpointed backlog —
	// the "WAL lag" healthz reports: how much replay a crash right now
	// would cost.
	Records, Bytes uint64
	// Segments is the live segment-file count.
	Segments int
	// stickyErr is the sticky append/sync failure wedging the log (nil when
	// healthy). Non-nil means new data is NOT crash-safe.
	Err error
}

// WALStats snapshots the attached log's lag and health.
func (s *Store) WALStats() WALStats {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	w := s.wal.Load()
	if w == nil {
		return WALStats{}
	}
	return WALStats{
		Attached: true,
		Records:  w.records,
		Bytes:    w.bytes,
		Segments: w.segments,
		Err:      w.err,
	}
}

// FlushWAL syncs unsynced WAL appends to disk (no-op without a WAL) —
// the SIGTERM-drain hook.
func (s *Store) FlushWAL() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	w := s.wal.Load()
	if w == nil {
		return nil
	}
	return w.flush()
}

// CheckpointDir is the one checkpoint: it writes into the durable
// directory layout Recover reads. The snapshot lands under a name
// embedding the WAL segment sequence it covers (snapName), published
// together with that watermark by SaveFile's one atomic rename, then the
// covered log is truncated and older snapshot files are swept. Ingest is
// excluded for the duration (the ingest mutex), so no batch can land in
// the truncated log without being in the snapshot. A crash at any point
// leaves either the previous snapshot plus the full log, or the new
// snapshot plus only newer segments — never a state where recovery
// replays a record the loaded snapshot already contains. SaveFile alone is
// a pure export and never touches the log.
func (s *Store) CheckpointDir(dir string) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	w := s.wal.Load()
	var covered uint64
	if w != nil {
		// Every record appended so far lives in a segment <= the live
		// sequence, and the ingest mutex keeps it that way until the
		// snapshot and truncation are done.
		covered = w.seq
	}
	if err := s.SaveFile(filepath.Join(dir, snapName(covered))); err != nil {
		return err
	}
	if w != nil {
		if err := w.truncate(); err != nil {
			return err
		}
	}
	sweepSnapshots(dir, covered)
	return nil
}

// sweepSnapshots removes checkpoint files superseded by the one covering
// `covered` — best effort: Recover always picks the highest stamp, so a
// leftover is garbage on disk, not a recovery hazard.
func sweepSnapshots(dir string, covered uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if c, stamped := parseSnapName(e.Name()); stamped && c < covered {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// CloseWAL flushes and detaches the log (final drain). The store remains
// usable in-memory; subsequent batches are no longer logged.
func (s *Store) CloseWAL() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	w := s.wal.Load()
	if w == nil {
		return nil
	}
	err := w.Close()
	s.wal.Store(nil)
	return err
}

// removeStaleTemps sweeps temp files a killed publish left behind in dir
// (base+".tmp*" — see faults.PublishFile). Only call on directories this
// package owns. Returns how many were removed.
func removeStaleTemps(dir, base string) int {
	matches, err := filepath.Glob(filepath.Join(dir, base+".tmp*"))
	if err != nil {
		return 0
	}
	n := 0
	for _, m := range matches {
		if os.Remove(m) == nil {
			n++
		}
	}
	return n
}
