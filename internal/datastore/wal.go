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

// The write-ahead log is the hot tier's durable copy: every acked batch is
// appended (and, per the fsync policy, synced) to a segment file before
// the caller sees its PacketID, and recovery replays the log on top of the
// newest checkpoint from the position it records. The log is segmented so
// dropping the rows a checkpoint no longer needs is a handful of unlinks,
// and CRC-framed so a torn tail or bit rot stops replay at the last valid
// record instead of corrupting the store.
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
	// fsyncNone never syncs explicitly; the OS flushes on its own
	// schedule. Fastest; a power cut can lose everything since the last
	// checkpoint, a process kill still loses nothing. Programs reach it
	// through ParseFsyncPolicy("none").
	fsyncNone
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
		return fsyncNone, nil
	}
	return 0, fmt.Errorf("datastore: unknown fsync policy %q (always|interval|none)", s)
}

// walConfig parameterizes a write-ahead log.
type walConfig struct {
	// Dir holds the segment files. Created if missing.
	Dir string
	// Fsync is the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 4 MiB).
	SegmentBytes int64
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

// wal is an append-only segmented log. It is not itself goroutine-safe:
// the owning Store serializes appends, flushes, and truncation under its
// ingest mutex.
type wal struct {
	cfg     walConfig
	fsys    faults.FS
	f       faults.File
	seq     uint64 // current segment sequence
	segSize int64  // bytes written to the current segment
	pending int    // appends since the last sync
	err     error  // sticky: first append/sync failure wedges the log

	records  uint64 // records appended (Recover seeds it with those replayed)
	bytes    uint64 // their bytes, block headers included
	segments int    // live segment files (including the current one)

	buf []byte // encode scratch, reused across appends
}

// segName formats a segment file name; names sort in sequence order.
func segName(seq uint64) string { return fmt.Sprintf("%016x.wal", seq) }

// parseSeq inverts prefix + %016x + suffix (segName, snapName), without
// allocating; ok=false for any other name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix); len(hex) == 16 && len(name) == len(prefix)+16+len(suffix) {
		n, err := strconv.ParseUint(hex, 16, 64)
		return n, err == nil
	}
	return 0, false
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
		if seq, ok := parseSeq(e.Name(), "", ".wal"); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// openWAL opens (creating if needed) a write-ahead log in cfg.Dir on fsys
// and positions it for appending: existing segments are left for replay,
// and new records go to a fresh segment numbered after the newest existing
// one, so a recovered process never overwrites history it has not yet
// replayed.
func openWAL(fsys faults.FS, cfg walConfig) (*wal, error) {
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
	w := &wal{cfg: cfg, fsys: fsys, segments: len(seqs)}
	next := uint64(1)
	if n := len(seqs); n > 0 {
		next = seqs[n-1] + 1
	}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment starts segment seq and writes its header.
func (w *wal) openSegment(seq uint64) error {
	f, err := w.fsys.OpenFile(filepath.Join(w.cfg.Dir, segName(seq)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("datastore: wal segment: %w", err)
	}
	if _, err := f.Write(walHeader(seq)); err != nil {
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

// walHeader is segment seq's header.
func walHeader(seq uint64) []byte {
	hdr := binary.LittleEndian.AppendUint16([]byte(walMagic), walVersion)
	return binary.LittleEndian.AppendUint64(hdr, seq)
}

// encodeBatch serializes one batch as a checked block in w.buf, sized
// once and reused across appends, and returns the framed record.
func (w *wal) encodeBatch(frames []traffic.Frame, links []uint16) []byte {
	if need := frame.BlockHeaderSize + frame.RecordsSize(frames); cap(w.buf) < need {
		w.buf = make([]byte, need)
	}
	w.buf = frame.AppendRecords(w.buf[:frame.BlockHeaderSize], frames, links)
	frame.SealBlock(w.buf)
	return w.buf
}

// append logs one acked batch. The record is on disk (and synced, per the
// policy) before append returns nil; a non-nil error means the batch is
// NOT durable and must not be acknowledged. The first I/O failure wedges
// the log: every later append fails fast with the same error, so a sick
// disk degrades loudly instead of interleaving lost and kept records.
func (w *wal) append(frames []traffic.Frame, links []uint16) error {
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

func (w *wal) sync() error {
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("datastore: wal sync: %w", err)
		return w.err
	}
	w.pending = 0
	obsWALSyncs.Inc()
	return nil
}

// rotate seals the current segment (synced) and opens the next one.
func (w *wal) rotate() error {
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

// flush syncs any unsynced appends (SIGTERM drains and every checkpoint
// call it first).
func (w *wal) flush() error {
	if w.err != nil {
		return w.err
	}
	if w.pending == 0 {
		return nil
	}
	return w.sync()
}

// truncate removes the segments below seq, oldest first — called by a
// checkpoint once it is published, with its replay position: nothing the
// checkpoint needs is below it. The live segment is never below it.
func (w *wal) truncate(seq uint64) error {
	seqs, err := listSegments(w.fsys, w.cfg.Dir)
	if err != nil {
		return fmt.Errorf("datastore: wal truncate: %w", err)
	}
	for _, old := range seqs {
		if old >= seq {
			break
		}
		if err := w.fsys.Remove(filepath.Join(w.cfg.Dir, segName(old))); err != nil {
			return fmt.Errorf("datastore: wal truncate: %w", err)
		}
		w.segments--
	}
	obsWALTruncates.Inc()
	return nil
}

// Close flushes and closes the live segment.
func (w *wal) Close() error {
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

// replaySegment streams records from one segment file into apply, reading
// each through *scratch, and stops at the first invalid byte. Returns the
// records applied and the length of the segment's valid prefix, header
// included (0 when the header itself is bad); ok=false means the segment
// ended in corruption or a torn tail and replay of later segments must not
// proceed.
func replaySegment(fsys faults.FS, path string, wantSeq uint64, scratch *[]byte, apply func(frames []traffic.Frame, links []uint16)) (applied uint64, valid int64, ok bool) {
	f, err := fsys.OpenFile(path, os.O_RDONLY)
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || string(hdr[:]) != string(walHeader(wantSeq)) {
		return 0, 0, false
	}
	for valid = walHeaderSize; ; applied++ {
		payload, err := frame.ReadBlock(f, frame.MaxBlock, scratch)
		if err != nil {
			// io.EOF: clean end. Anything else — a torn header or payload,
			// an oversized length, bit rot — ends the log here.
			return applied, valid, err == io.EOF
		}
		frames, links, err := decodeWALRecord(payload)
		if err != nil {
			return applied, valid, false
		}
		apply(frames, links)
		valid += int64(frame.BlockHeaderSize + len(payload))
	}
}

// replayWALFrom applies every valid record in dir's segments on fsys, in
// sequence order from segment from (0: the oldest there is), to apply,
// calling seg before each segment it replays. It stops at the first
// corruption or gap and never panics; the applied records are always a
// prefix of the record stream appended from that segment on. A replay that
// stops early reports the segment it stopped in (stop 0: it did not) and
// the length of that segment's valid prefix (all of it when a gap follows
// it). A missing segment from > 0 is an error wrapping errBadSnapshot: the
// checkpoint that names it cannot be completed.
func replayWALFrom(fsys faults.FS, dir string, from uint64, seg func(seq uint64), apply func(frames []traffic.Frame, links []uint16)) (stop uint64, valid int64, err error) {
	seqs, err := listSegments(fsys, dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) && from == 0 {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("datastore: wal replay: %w", err)
	}
	seqs = seqs[sort.Search(len(seqs), func(i int) bool { return seqs[i] >= from }):]
	if from > 0 && (len(seqs) == 0 || seqs[0] != from) {
		return 0, 0, fmt.Errorf("%w: wal segment %s at the replay position is missing", errBadSnapshot, filepath.Join(dir, segName(from)))
	}
	var scratch []byte // one read buffer for every record
	for i, seq := range seqs {
		if i > 0 && seq != seqs[i-1]+1 {
			// A gap means a middle segment is gone; anything after the
			// gap is not a prefix. Stop.
			stop = seqs[i-1]
			break
		}
		seg(seq)
		n, v, ok := replaySegment(fsys, filepath.Join(dir, segName(seq)), seq, &scratch, apply)
		obsWALReplayed.Add(n)
		if valid = v; !ok {
			stop = seq
			break
		}
	}
	if stop != 0 {
		obsWALCorrupt.Inc()
	}
	return stop, valid, nil
}

// repairWAL makes a torn log whole again: the segments after stop, the one
// replay stopped in, are removed, newest first, and the first valid bytes
// of stop are republished in its place, so the next append lands after the
// last record replayed and a later replay does not stop at the old tear.
func repairWAL(fsys faults.FS, dir string, stop uint64, valid int64) error {
	seqs, err := listSegments(fsys, dir)
	if err != nil {
		return err
	}
	for i := len(seqs) - 1; i >= 0 && seqs[i] > stop; i-- {
		if err := fsys.Remove(filepath.Join(dir, segName(seqs[i]))); err != nil {
			return err
		}
	}
	path := filepath.Join(dir, segName(stop))
	prefix := walHeader(stop)
	if valid > walHeaderSize {
		b, err := fsys.ReadFile(path)
		if err != nil {
			return err
		}
		prefix = b[:valid]
	}
	return faults.PublishFile(fsys, path, func(w io.Writer) error {
		_, err := w.Write(prefix)
		return err
	})
}
