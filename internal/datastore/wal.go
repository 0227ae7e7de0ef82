package datastore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"campuslab/internal/faults"
	"campuslab/internal/frame"
	"campuslab/internal/obs"
	"campuslab/internal/traffic"
)

// The write-ahead log makes acknowledged ingest durable between snapshots:
// every acked batch is appended (and, per the fsync policy, synced) to a
// segment file before the caller sees its PacketID, and recovery replays
// the log on top of the newest snapshot. The log is segmented so
// truncation after a checkpoint is a handful of unlinks, and CRC-framed
// so a torn tail or bit rot stops replay at the last valid record instead
// of corrupting the store.
//
// On-disk layout (all integers little-endian):
//
//	segment file <dir>/<seq>.wal:
//	  header:  magic "CLWL" | version u16 | segment seq u64
//	  records: one frame checked block each (payload len | crc32 | payload)
//	  payload: a frame record list (count u32, then per packet:
//	           ts i64 | link u16 | label u8 | actor u8 | dlen u32 | data)
//
// Replay walks segments in ascending sequence order and stops — cleanly,
// never with a panic — at the first invalid byte: a short header, a bad
// magic, a record length past the segment end, a checksum mismatch, or a
// packet record the shared parser refuses (frame.DecodeRecords).
// Everything before that point is applied; everything after (including
// later segments) is discarded, so the recovered store is always a prefix
// of the acknowledged batch stream.

const (
	walMagic   = "CLWL"
	walVersion = 1
	// walHeaderSize is the segment header: magic + version + seq.
	walHeaderSize = 4 + 2 + 8
	// walSyncAfter is the append count between syncs under FsyncInterval.
	walSyncAfter = 16
)

// errWALCorrupt reports a write-ahead-log segment whose tail (or body)
// failed validation. Replay treats corruption as end-of-log — the error is
// surfaced in RecoveryStats, not returned — so this sentinel is mainly for
// the explicit segment-inspection paths and tests.
var errWALCorrupt = errors.New("datastore: wal corrupt")

// FsyncPolicy selects how eagerly the WAL syncs appends to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append — and fsyncs the directory
	// when a segment is created, so the file's dirent survives too: an
	// acked batch survives an immediate power cut. The safest and
	// slowest policy.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs every walSyncAfter appends (and on flush/rotate/
	// truncate): a crash loses at most the unsynced suffix of acked
	// batches on power loss, nothing on a process kill (the OS still has
	// the writes). The operational default.
	FsyncInterval
	// FsyncNone never syncs explicitly; the OS flushes on its own
	// schedule. Fastest; a power cut can lose everything since the last
	// checkpoint, a process kill still loses nothing.
	FsyncNone
)

// String names the policy (benchmark axes, healthz).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "none"
	}
}

// ParseFsyncPolicy maps the flag spelling to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("datastore: unknown fsync policy %q (always|interval|none)", s)
}

// WALConfig parameterizes a write-ahead log.
type WALConfig struct {
	// Dir holds the segment files. Created if missing.
	Dir string
	// Fsync is the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 4 MiB).
	SegmentBytes int64
	// StartSeq forces the first new segment's sequence to be at least
	// this value (0 = right after the newest existing segment). Recover
	// passes the loaded snapshot's covered sequence + 1 so a record
	// appended after recovery can never land in a segment a snapshot
	// already claims to cover.
	StartSeq uint64
}

// WAL metrics: appended records/bytes, syncs, truncations, and the replay
// outcomes recovery reports.
var (
	obsWALAppends   = obs.Default.Counter("campuslab_wal_appends_total")
	obsWALBytes     = obs.Default.Counter("campuslab_wal_bytes_total")
	obsWALSyncs     = obs.Default.Counter("campuslab_wal_syncs_total")
	obsWALTruncates = obs.Default.Counter("campuslab_wal_truncations_total")
	obsWALReplayed  = obs.Default.Counter("campuslab_wal_replayed_records_total")
	obsWALCorrupt   = obs.Default.Counter("campuslab_wal_corrupt_tails_total")
)

// WAL is an append-only segmented log. It is not itself goroutine-safe:
// the owning Store serializes appends, flushes, and truncation under its
// ingest mutex.
type WAL struct {
	cfg     WALConfig
	fsys    faults.FS
	f       faults.File
	seq     uint64 // current segment sequence
	segSize int64  // bytes written to the current segment
	pending int    // appends since the last sync
	err     error  // sticky: first append/sync failure wedges the log

	records  uint64 // records appended since the last truncation
	bytes    uint64 // payload+frame bytes appended since the last truncation
	segments int    // live segment files (including the current one)

	buf []byte // encode scratch, reused across appends
}

// segName formats a segment file name; names sort in sequence order.
func segName(seq uint64) string { return fmt.Sprintf("%016x.wal", seq) }

// parseSegName inverts segName; ok=false for foreign files.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".wal") || len(name) != 16+4 {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[:16], 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// NewestWALSegment returns the path of the highest-sequence segment file
// in dir — the one a crash mid-append would tear. Chaos harnesses use it
// to plant torn tails; an error means no segments exist.
func NewestWALSegment(dir string) (string, error) {
	seqs, err := listSegments(faults.OS, dir)
	if err != nil {
		return "", err
	}
	if len(seqs) == 0 {
		return "", fmt.Errorf("datastore: no wal segments in %s", dir)
	}
	return filepath.Join(dir, segName(seqs[len(seqs)-1])), nil
}

// listSegments returns the WAL segment sequences in dir, ascending.
func listSegments(fsys faults.FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// OpenWAL opens (creating if needed) a write-ahead log in cfg.Dir and
// positions it for appending: existing segments are left for Replay, and
// new records go to a fresh segment numbered after the newest existing
// one, so a recovered process never overwrites history it has not yet
// replayed.
func OpenWAL(cfg WALConfig) (*WAL, error) { return openWAL(faults.OS, cfg) }

// openWAL is OpenWAL on fsys.
func openWAL(fsys faults.FS, cfg WALConfig) (*WAL, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("datastore: wal: Dir is required")
	}
	if err := mkdirDurable(fsys, cfg.Dir); err != nil {
		return nil, fmt.Errorf("datastore: wal: %w", err)
	}
	seqs, err := listSegments(fsys, cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("datastore: wal: %w", err)
	}
	w := &WAL{cfg: cfg, fsys: fsys, segments: len(seqs)}
	next := uint64(1)
	if n := len(seqs); n > 0 {
		next = seqs[n-1] + 1
	}
	if next < cfg.StartSeq {
		next = cfg.StartSeq
	}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment starts segment seq and writes its header.
func (w *WAL) openSegment(seq uint64) error {
	f, err := w.fsys.OpenFile(filepath.Join(w.cfg.Dir, segName(seq)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("datastore: wal segment: %w", err)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:4], walMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], walVersion)
	binary.LittleEndian.PutUint64(hdr[6:14], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("datastore: wal header: %w", err)
	}
	if w.cfg.Fsync == FsyncAlways {
		// The power-cut guarantee needs the header on disk and the
		// directory entry durable: a synced record in a file whose dirent
		// was never fsynced vanishes with the power.
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("datastore: wal header sync: %w", err)
		}
		if err := w.fsys.SyncDir(w.cfg.Dir); err != nil {
			f.Close()
			return fmt.Errorf("datastore: wal dir sync: %w", err)
		}
	}
	w.f, w.seq, w.segSize, w.pending = f, seq, walHeaderSize, 0
	w.segments++
	return nil
}

// encodeBatch serializes one batch as a checked block in w.buf, sized
// once and reused across appends, and returns the framed record.
func (w *WAL) encodeBatch(frames []traffic.Frame, links []uint16) []byte {
	if need := frame.BlockHeaderSize + frame.RecordsSize(frames); cap(w.buf) < need {
		w.buf = make([]byte, need)
	}
	w.buf = frame.AppendRecords(w.buf[:frame.BlockHeaderSize], frames, links)
	frame.SealBlock(w.buf)
	return w.buf
}

// Append logs one acked batch. The record is on disk (and synced, per the
// policy) before Append returns nil; a non-nil error means the batch is
// NOT durable and must not be acknowledged. The first I/O failure wedges
// the log: every later Append fails fast with the same error, so a sick
// disk degrades loudly instead of interleaving lost and kept records.
func (w *WAL) Append(frames []traffic.Frame, links []uint16) error {
	if w.err != nil {
		return w.err
	}
	rec := w.encodeBatch(frames, links)
	if _, err := w.f.Write(rec); err != nil {
		w.err = fmt.Errorf("datastore: wal append: %w", err)
		return w.err
	}
	w.segSize += int64(len(rec))
	w.records++
	w.bytes += uint64(len(rec))
	w.pending++
	obsWALAppends.Inc()
	obsWALBytes.Add(uint64(len(rec)))
	switch w.cfg.Fsync {
	case FsyncAlways:
		if err := w.sync(); err != nil {
			return err
		}
	case FsyncInterval:
		if w.pending >= walSyncAfter {
			if err := w.sync(); err != nil {
				return err
			}
		}
	}
	if w.segSize >= w.cfg.SegmentBytes {
		return w.rotate()
	}
	return nil
}

func (w *WAL) sync() error {
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("datastore: wal sync: %w", err)
		return w.err
	}
	w.pending = 0
	obsWALSyncs.Inc()
	return nil
}

// rotate seals the current segment (synced) and opens the next one.
func (w *WAL) rotate() error {
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		w.err = fmt.Errorf("datastore: wal close: %w", err)
		return w.err
	}
	if err := w.openSegment(w.seq + 1); err != nil {
		w.err = err
		return err
	}
	return nil
}

// flush syncs any unsynced appends (SIGTERM drains call this before the
// final snapshot).
func (w *WAL) flush() error {
	if w.err != nil {
		return w.err
	}
	if w.pending == 0 {
		return nil
	}
	return w.sync()
}

// truncate drops every segment older than the current one and restarts
// the current one empty — called after a successful checkpoint, whose
// snapshot now covers everything the log held. The caller must guarantee
// no record appended after the snapshot's cut is discarded; the Store does
// so by holding its ingest mutex across checkpoint and truncation.
func (w *WAL) truncate() error {
	if w.err != nil {
		return w.err
	}
	seqs, err := listSegments(w.fsys, w.cfg.Dir)
	if err != nil {
		return fmt.Errorf("datastore: wal truncate: %w", err)
	}
	for _, seq := range seqs {
		if seq >= w.seq {
			continue
		}
		if err := w.fsys.Remove(filepath.Join(w.cfg.Dir, segName(seq))); err != nil {
			return fmt.Errorf("datastore: wal truncate: %w", err)
		}
	}
	// Restart the live segment under the next sequence number so a
	// replayer never sees a sequence reused with different contents.
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("datastore: wal close: %w", err)
	}
	old := w.seq
	w.segments = 0
	if err := w.openSegment(w.seq + 1); err != nil {
		return err
	}
	if err := w.fsys.Remove(filepath.Join(w.cfg.Dir, segName(old))); err != nil {
		return fmt.Errorf("datastore: wal truncate: %w", err)
	}
	w.records, w.bytes = 0, 0
	obsWALTruncates.Inc()
	return nil
}

// Close flushes and closes the live segment.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	ferr := w.flush()
	cerr := w.f.Close()
	w.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

// decodeWALRecord parses one record payload. Corruption returns
// errWALCorrupt (wrapped) — never a panic, whatever the bytes.
func decodeWALRecord(payload []byte) ([]traffic.Frame, []uint16, error) {
	frames, links, err := frame.DecodeRecords(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errWALCorrupt, err)
	}
	return frames, links, nil
}

// replaySegment streams records from one segment file into apply, stopping
// at the first invalid byte. Returns (records applied, clean); clean=false
// means the segment ended in corruption or a torn tail and replay of later
// segments must not proceed.
func replaySegment(fsys faults.FS, path string, wantSeq uint64, apply func(frames []traffic.Frame, links []uint16)) (uint64, bool) {
	f, err := fsys.OpenFile(path, os.O_RDONLY)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, false
	}
	if string(hdr[:4]) != walMagic ||
		binary.LittleEndian.Uint16(hdr[4:6]) != walVersion ||
		binary.LittleEndian.Uint64(hdr[6:14]) != wantSeq {
		return 0, false
	}
	var applied uint64
	var scratch []byte
	for {
		payload, err := frame.ReadBlock(f, frame.MaxBlock, &scratch)
		if err != nil {
			// io.EOF: clean end. Anything else — a torn header or payload,
			// an oversized length, bit rot — ends the log here.
			return applied, err == io.EOF
		}
		frames, links, err := decodeWALRecord(payload)
		if err != nil {
			return applied, false
		}
		apply(frames, links)
		applied++
	}
}

// ReplayWALFrom applies every valid record in dir's segments, in sequence
// order, to apply. It stops at the first corruption (reporting clean=false)
// and never panics; the applied records are always a prefix of the
// appended record stream. covered is for a store loaded from a snapshot
// that already covers every segment with sequence <= covered (0 = none):
// those segments — left behind when a crash lands between a checkpoint's
// snapshot rename and the end of truncation — are skipped, never replayed
// on top of the data they are already part of. With covered > 0 the first
// replayed segment must be exactly covered+1; a later start means
// uncovered segments are missing, which is a loss, not a prefix.
func ReplayWALFrom(dir string, covered uint64, apply func(frames []traffic.Frame, links []uint16)) (records uint64, clean bool, err error) {
	return replayWALFrom(faults.OS, dir, covered, apply)
}

// replayWALFrom is ReplayWALFrom on fsys.
func replayWALFrom(fsys faults.FS, dir string, covered uint64, apply func(frames []traffic.Frame, links []uint16)) (records uint64, clean bool, err error) {
	seqs, err := listSegments(fsys, dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("datastore: wal replay: %w", err)
	}
	seqs = seqs[sort.Search(len(seqs), func(i int) bool { return seqs[i] > covered }):]
	clean = true
	for i, seq := range seqs {
		if i == 0 && covered > 0 && seq != covered+1 {
			clean = false
			break
		}
		if i > 0 && seq != seqs[i-1]+1 {
			// A gap means an interrupted truncation removed a middle
			// segment; anything after the gap is not a prefix. Stop.
			clean = false
			break
		}
		n, ok := replaySegment(fsys, filepath.Join(dir, segName(seq)), seq, apply)
		records += n
		obsWALReplayed.Add(n)
		if !ok {
			clean = false
			break
		}
	}
	if !clean {
		obsWALCorrupt.Inc()
	}
	return records, clean, nil
}
