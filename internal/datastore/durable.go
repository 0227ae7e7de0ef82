package datastore

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"campuslab/internal/faults"
	"campuslab/internal/traffic"
)

// A durable store couples the in-memory sharded store with a snapshot file
// and a write-ahead log in one directory:
//
//	<dir>/snapshot-<seq>.clds   the newest checkpoint (the v4 snapshot:
//	                            checked blocks, one layout for every store)
//	<dir>/<seq>.wal             segments holding every acked batch since
//
// Recover rebuilds the store as snapshot ⊕ WAL replay; CheckpointDir
// writes a fresh snapshot and truncates the log. The snapshot keeps the
// hot rows' IDs and every flow aggregate, so replay lands on the store the
// log was written against, evicted or sealed rows or not; an older snapshot
// version is refused (ErrBadSnapshot), not migrated. Between checkpoints,
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
func findSnapshot(fsys faults.FS, dir string) (path string, covered uint64, ok bool, err error) {
	ents, err := fsys.ReadDir(dir)
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
func Recover(cfg DurableConfig) (*Store, RecoveryStats, error) { return recoverOn(faults.OS, cfg) }

// recoverOn is Recover on fsys; the returned store keeps every later
// snapshot, log and tier file on it.
func recoverOn(fsys faults.FS, cfg DurableConfig) (*Store, RecoveryStats, error) {
	var rs RecoveryStats
	if cfg.Dir == "" {
		return nil, rs, fmt.Errorf("datastore: recover: Dir is required")
	}
	if err := mkdirDurable(fsys, cfg.Dir); err != nil {
		return nil, rs, fmt.Errorf("datastore: recover: %w", err)
	}
	removeStaleTemps(fsys, cfg.Dir, "snapshot*"+snapSuffix)

	snapPath, covered, haveSnap, err := findSnapshot(fsys, cfg.Dir)
	if err != nil {
		return nil, rs, fmt.Errorf("datastore: recover: %w", err)
	}
	var st *Store
	if haveSnap {
		st, err = loadFile(fsys, snapPath, cfg.Shards, cfg.Workers)
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
	st.fsys = fsys

	var walBytes uint64
	records, clean, err := replayWALFrom(fsys, cfg.Dir, covered, func(frames []traffic.Frame, links []uint16) {
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
	// served from cold storage exactly once.
	if cfg.Tier.Dir != "" {
		if err := st.EnableTiering(cfg.Tier); err != nil {
			return nil, rs, fmt.Errorf("datastore: recover tier: %w", err)
		}
	}

	w, err := openWAL(fsys, WALConfig{
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
	// Err is the sticky failure wedging the log (nil when healthy): a failed
	// append or sync, or a checkpoint that failed once its snapshot was
	// visible (CheckpointDir). Non-nil means no batch is acked any more.
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
//
// A failed file operation returns its error (errors.Is finds the errno)
// and, before the snapshot is visible, changes nothing. Once it is visible
// (a failed directory sync, any truncation step) the failure wedges the
// log, WALStats.Err: the snapshot covers the live segment, so the next
// replay would skip a record appended there, and every append fails
// instead until the store is recovered.
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
		if _, c, ok, ferr := findSnapshot(s.fsys, dir); w != nil && (ferr != nil || ok && c == covered) {
			w.err = err // the snapshot may be visible
		}
		return err
	}
	if w != nil {
		if err := w.truncate(); err != nil {
			w.err = err
			return err
		}
	}
	sweepSnapshots(s.fsys, dir, covered)
	return nil
}

// sweepSnapshots removes checkpoint files superseded by the one covering
// `covered` — best effort: Recover always picks the highest stamp, so a
// leftover is garbage on disk, not a recovery hazard.
func sweepSnapshots(fsys faults.FS, dir string, covered uint64) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if c, stamped := parseSnapName(e.Name()); stamped && c < covered {
			fsys.Remove(filepath.Join(dir, e.Name()))
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
// (base+".tmp*" — see faults.PublishFile). Returns how many were removed.
func removeStaleTemps(fsys faults.FS, dir, base string) int {
	return removeMatching(fsys, dir, base+".tmp*", nil)
}

// removeMatching removes the files in dir that match a filepath.Match
// pattern, except those keep names, and returns how many it removed. Only
// call on directories this package owns.
func removeMatching(fsys faults.FS, dir, pattern string, keep map[string]bool) (n int) {
	ents, _ := fsys.ReadDir(dir) // an unreadable dir has nothing to sweep
	for _, e := range ents {
		if ok, _ := filepath.Match(pattern, e.Name()); ok && !keep[e.Name()] && fsys.Remove(filepath.Join(dir, e.Name())) == nil {
			n++
		}
	}
	return n
}

// mkdirDurable creates dir and its missing parents and fsyncs the parent
// of each directory it created, so the new entries survive a power cut:
// without the parent sync, a batch acked under FsyncAlways in a fresh
// directory can vanish with the directory's entry.
func mkdirDurable(fsys faults.FS, dir string) (err error) {
	var missing []string // deepest first
	for d := filepath.Clean(dir); filepath.Dir(d) != d; d = filepath.Dir(d) {
		if _, err := fsys.ReadDir(d); err == nil {
			break
		}
		missing = append(missing, d)
	}
	if len(missing) > 0 {
		err = fsys.MkdirAll(dir)
	}
	for i := len(missing) - 1; i >= 0 && err == nil; i-- {
		err = fsys.SyncDir(filepath.Dir(missing[i]))
	}
	return err
}
