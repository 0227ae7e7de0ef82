package datastore

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"campuslab/internal/faults"
	"campuslab/internal/frame"
	"campuslab/internal/traffic"
)

// A durable store couples the in-memory sharded store with a write-ahead
// log and a checkpoint in one directory:
//
//	<dir>/<seq>.wal           segments holding every acked batch whose rows
//	                          are not all sealed or evicted
//	<dir>/snapshot-<n>.clds   the newest checkpoint, the n-th written here
//	                          (a v7 snapshot: persist.go)
//
// The WAL is the hot tier's only durable copy: every acked AddBatch is
// logged before its PacketID is returned, so a hard kill at any instant
// loses nothing that was acknowledged (under FsyncAlways; weaker policies
// trade the power-loss window for speed — see FsyncPolicy). A checkpoint
// holds what the log cannot rebuild — the events, the flow aggregates, the
// base ID (the oldest row neither sealed nor evicted) and the cut ID (the
// next ID at the checkpoint) — and a replay position: the newest segment
// starting at or below the base ID, with the first ID in it and the TS
// watermark before it (walPos, noted in memory as each segment opens).
//
// Recover loads the newest checkpoint and replays the log from its
// position through the ingest funnel: rows below the cut go back into the
// slabs and postings without touching the checkpoint's flows, rows at or
// above it apply normally, and the rows below the base are trimmed away
// again, so every row gets its ID back and every flow counts it once. A log
// that ends below the cut, or is missing the position's segment, is an
// error wrapping errBadSnapshot, never a short store.
//
// CheckpointDir publishes a checkpoint, then removes the segments below
// its position; nothing else removes one, eviction and seals included.
// The cost is the log it keeps: WAL disk usage grows to the hot set, and
// an untiered store that never evicts keeps its whole WAL.

// errCheckpointDir refuses a checkpoint into a directory other than the
// attached log's.
var errCheckpointDir = errors.New("datastore: checkpoint: not the WAL's directory")

// snapSuffix ends every checkpoint file name.
const snapSuffix = ".clds"

// bareSnapshot is the pre-stamp checkpoint name. It is no longer read:
// Recover refuses a directory where it is the only checkpoint rather than
// start empty over it.
const bareSnapshot = "snapshot" + snapSuffix

// snapName formats the name of the n-th checkpoint; names sort in
// checkpoint order.
func snapName(n uint64) string {
	return fmt.Sprintf("snapshot-%016x%s", n, snapSuffix)
}

// findSnapshot picks the checkpoint Recover loads: the highest stamp wins
// (an interrupted checkpoint can leave older ones behind). A directory
// whose only checkpoint is a legacy bare snapshot.clds is an error
// wrapping errBadSnapshot.
func findSnapshot(fsys faults.FS, dir string) (path string, stamp uint64, ok bool, err error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return "", 0, false, err
	}
	legacy := false
	for _, e := range ents {
		if n, isSnap := parseSeq(e.Name(), "snapshot-", snapSuffix); isSnap && (!ok || n > stamp) {
			stamp, ok = n, true
		}
		legacy = legacy || e.Name() == bareSnapshot
	}
	if ok {
		return filepath.Join(dir, snapName(stamp)), stamp, true, nil
	}
	if legacy {
		return "", 0, false, fmt.Errorf("%w: %s is an unstamped legacy checkpoint, which this build does not read",
			errBadSnapshot, filepath.Join(dir, bareSnapshot))
	}
	return "", 0, false, nil
}

// DurableConfig parameterizes a durable store directory.
type DurableConfig struct {
	// Dir is the durability root (checkpoint + WAL segments).
	Dir string
	// Fsync is the WAL durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SegmentBytes rotates the WAL to a new segment file once the current
	// one exceeds this size (default 4 MiB).
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
	// SnapshotPackets are the hot rows the checkpoint covered, rebuilt
	// from the WAL below its cut (0 when there was no checkpoint).
	SnapshotPackets uint64
	// WALRecords were replayed from the checkpoint's position on;
	// WALPackets are their rows at or above the cut, acked after it.
	WALRecords, WALPackets uint64
	// Torn reports that replay stopped early at a torn tail or corrupt
	// frame; everything before the stop point was applied.
	Torn bool
}

// walPos is a WAL replay position: a segment, the first PacketID its
// first record takes, and the TS watermark before that record, so replay
// from it gives every row the ID and the clamped TS it took at ingest.
type walPos struct {
	seq     uint64
	firstID PacketID
	lastTS  int64
}

// walSeg notes a live WAL segment: its position, and the log's record
// and byte totals when it opened.
type walSeg struct {
	walPos
	records, bytes uint64
}

// noteSegment notes the log's live segment if it is new. Caller holds
// ingestMu and has applied every batch appended so far.
func (s *Store) noteSegment() {
	w := s.wal
	if n := len(s.walSegs); n == 0 || s.walSegs[n-1].seq != w.seq {
		s.walSegs = append(s.walSegs, walSeg{walPos{w.seq, PacketID(s.nextID.Load()), s.lastTS.Load()}, w.records, w.bytes})
	}
}

// Recover opens (or initializes) the durable directory: stale temp files
// are swept, the newest checkpoint is loaded at cfg.Shards, the WAL is
// replayed from its position through the ingest funnel — stopping cleanly
// at a torn tail, whose valid prefix is republished — and a fresh log
// segment is attached for new writes. The returned store acknowledges every
// subsequent batch through the WAL.
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
	removeStaleTemps(fsys, cfg.Dir, "*") // checkpoints and repaired segments

	snapPath, _, haveSnap, err := findSnapshot(fsys, cfg.Dir)
	if err != nil {
		return nil, rs, fmt.Errorf("datastore: recover: %w", err)
	}
	st := NewSharded(cfg.Shards)
	var base, cut PacketID
	var pos walPos
	if haveSnap {
		// Checkpoints are published atomically, so a corrupt one is real
		// damage, not a crash artifact: refuse to guess rather than
		// silently drop checkpointed data.
		st, base, pos, err = loadFile(fsys, snapPath, cfg.Shards)
		if err != nil {
			return nil, rs, fmt.Errorf("datastore: recover snapshot: %w", err)
		}
		cut = PacketID(st.nextID.Load())
		st.nextID.Store(uint64(pos.firstID))
		st.lastTS.Store(pos.lastTS)
	}
	st.fsys = fsys

	var segs []walSeg
	var nbytes uint64
	stop, valid, err := replayWALFrom(fsys, cfg.Dir, pos.seq, func(seq uint64) {
		segs = append(segs, walSeg{walPos{seq, PacketID(st.nextID.Load()), st.lastTS.Load()}, rs.WALRecords, nbytes})
	}, func(frames []traffic.Frame, links []uint16) {
		// No log is attached and no gate armed yet: the funnel cannot refuse.
		_, _ = st.ingest(frames, links, cfg.Workers, cut)
		rs.WALRecords++
		nbytes += uint64(frame.BlockHeaderSize + frame.RecordsSize(frames))
	})
	if err != nil {
		return nil, rs, fmt.Errorf("datastore: recover: %w", err)
	}
	next := PacketID(st.nextID.Load())
	if next < cut {
		return nil, rs, fmt.Errorf("datastore: recover: %w: the WAL in %s ends at packet %d, below the cut %d of %s",
			errBadSnapshot, cfg.Dir, next, cut, snapPath)
	}
	rs.SnapshotPackets, rs.WALPackets = uint64(cut-base), uint64(next-cut)
	st.trimHotBelow(base)
	// A torn log is repaired before anything is appended to it: a later
	// recovery would otherwise stop at the old tear and discard the acked
	// batches appended after it.
	if rs.Torn = stop != 0; rs.Torn {
		if err := repairWAL(fsys, cfg.Dir, stop, valid); err != nil {
			return nil, rs, fmt.Errorf("datastore: recover: repairing torn wal: %w", err)
		}
	}

	// Attach the cold tier after replay and before the WAL reopens: replay
	// re-ingested every acked batch from the checkpoint's position,
	// including rows a seal after the checkpoint moved into segments;
	// EnableTiering trims the hot tier below the manifest's watermark so
	// those rows are served from cold storage exactly once.
	if cfg.Tier.Dir != "" {
		if err := st.EnableTiering(cfg.Tier); err != nil {
			return nil, rs, fmt.Errorf("datastore: recover tier: %w", err)
		}
	}

	w, err := openWAL(fsys, walConfig{Dir: cfg.Dir, Fsync: cfg.Fsync, SegmentBytes: cfg.SegmentBytes})
	if err != nil {
		return nil, rs, err
	}
	w.records, w.bytes = rs.WALRecords, nbytes
	st.walSegs = segs
	st.attachWAL(w)
	return st, rs, nil
}

// attachWAL routes every subsequent acked batch through w: the record is
// durable (per w's fsync policy) before the batch's first PacketID is
// returned. Attach before concurrent ingest begins.
func (s *Store) attachWAL(w *wal) {
	s.ingestMu.Lock()
	s.wal = w
	s.noteSegment()
	s.ingestMu.Unlock()
}

// WALStats describes the attached log (zero value when none).
type WALStats struct {
	// Attached reports whether a WAL is wired in.
	Attached bool
	// Records / Bytes are the log from the newest checkpoint's replay
	// position on — the "WAL lag" healthz reports: what a recovery right
	// now would replay.
	Records, Bytes uint64
	// Segments is the live segment-file count.
	Segments int
	// Err is the sticky failure wedging the log (nil when healthy): a
	// failed append or sync. Non-nil means no batch is acked any more.
	Err error
}

// WALStats snapshots the attached log's lag and health.
func (s *Store) WALStats() WALStats {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	w := s.wal
	if w == nil {
		return WALStats{}
	}
	from := s.walSegs[0]
	return WALStats{Attached: true, Records: w.records - from.records, Bytes: w.bytes - from.bytes, Segments: w.segments, Err: w.err}
}

// FlushWAL syncs unsynced WAL appends to disk (no-op without a WAL) —
// the SIGTERM-drain hook.
func (s *Store) FlushWAL() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	w := s.wal
	if w == nil {
		return nil
	}
	return w.flush()
}

// CheckpointDir is the one checkpoint: it writes into the durable
// directory layout Recover reads. With ingest excluded (the ingest mutex)
// it flushes the log, so every row the checkpoint counts is on disk under
// every FsyncPolicy, publishes the checkpoint (no packets, a replay
// position) under the next stamp with one atomic rename, and then removes
// the WAL segments below the position and the older checkpoints. A failed
// file operation returns its error (errors.Is finds the errno) and never
// wedges the log: before the rename nothing has changed, and after it both
// checkpoints are valid starting points. A store without a log has no
// checkpoint: the log holds its hot rows. dir must be the log's own
// directory (errCheckpointDir otherwise, before any file operation): the
// truncation is of that log, and a checkpoint anywhere else would leave
// the log's directory with segments gone that no checkpoint beside them
// covers.
func (s *Store) CheckpointDir(dir string) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	w := s.wal
	if w == nil {
		return errors.New("datastore: checkpoint: no WAL attached (a checkpoint's hot rows are its WAL)")
	}
	if filepath.Clean(dir) != filepath.Clean(w.cfg.Dir) {
		return fmt.Errorf("%w: %s, the log is in %s", errCheckpointDir, dir, w.cfg.Dir)
	}
	_, stamp, _, err := findSnapshot(s.fsys, dir)
	if err != nil && !errors.Is(err, errBadSnapshot) {
		return fmt.Errorf("datastore: checkpoint: %w", err)
	}
	if err := w.flush(); err != nil {
		return err
	}
	var pos walPos
	name := snapName(stamp + 1)
	if err := faults.PublishFile(s.fsys, filepath.Join(dir, name), func(out io.Writer) (err error) {
		pos, err = s.save(out, s.walSegs)
		return err
	}); err != nil {
		return fmt.Errorf("datastore: checkpoint: %w", err)
	}
	for len(s.walSegs) > 1 && s.walSegs[0].seq < pos.seq {
		s.walSegs = s.walSegs[1:]
	}
	err = w.truncate(pos.seq)
	// Best effort: a leftover is garbage, since Recover picks the newest.
	removeMatching(s.fsys, dir, "snapshot-*"+snapSuffix, map[string]bool{name: true})
	return err
}

// CloseWAL flushes and detaches the log (final drain). The store remains
// usable in-memory; subsequent batches are no longer logged.
func (s *Store) CloseWAL() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	w := s.wal
	if w == nil {
		return nil
	}
	err := w.Close()
	s.wal = nil
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
