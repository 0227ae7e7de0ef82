package capture

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// rotatingWriter implements continuous capture with bounded retention: it
// writes pcap segments, starting a new one when the current segment
// exceeds the size or time bound, and deletes the oldest segments beyond
// the retention count — the disk-side half of §5's "data storage
// requirements of the order of a week".
type rotatingWriter struct {
	dir          string
	prefix       string
	maxBytes     int64
	maxSpan      time.Duration
	keep         int
	snaplen      int
	seq          int
	cur          *os.File
	curWriter    *PcapWriter
	curBytes     int64
	curStart     time.Duration
	curHasStart  bool
	totalWritten uint64
	rotations    int
}

// rotateConfig configures a rotatingWriter.
type rotateConfig struct {
	// Dir receives the segment files.
	Dir string
	// Prefix names segments: <prefix>-<seq>.pcap.
	Prefix string
	// MaxBytes bounds a segment's payload size (default 64 MiB).
	MaxBytes int64
	// MaxSpan bounds a segment's capture time span (default 1h of
	// scenario time).
	MaxSpan time.Duration
	// Keep is how many segments to retain (default 8; older are deleted).
	Keep int
	// Snaplen as in NewPcapWriter.
	Snaplen int
}

// newRotatingWriter validates cfg and opens the first segment lazily.
func newRotatingWriter(cfg rotateConfig) (*rotatingWriter, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("capture: rotate: Dir is required")
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "capture"
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.MaxSpan <= 0 {
		cfg.MaxSpan = time.Hour
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 8
	}
	if st, err := os.Stat(cfg.Dir); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("capture: rotate: %q is not a directory", cfg.Dir)
	}
	return &rotatingWriter{
		dir: cfg.Dir, prefix: cfg.Prefix,
		maxBytes: cfg.MaxBytes, maxSpan: cfg.MaxSpan,
		keep: cfg.Keep, snaplen: cfg.Snaplen,
	}, nil
}

// write appends a record, rotating first if the current segment is full.
func (w *rotatingWriter) write(rec *Record) error {
	needRotate := w.cur == nil ||
		w.curBytes >= w.maxBytes ||
		(w.curHasStart && rec.TS-w.curStart >= w.maxSpan)
	if needRotate {
		if err := w.rotate(); err != nil {
			return err
		}
		w.curStart, w.curHasStart = rec.TS, true
	}
	if err := w.curWriter.Write(rec); err != nil {
		return err
	}
	w.curBytes += int64(len(rec.Data)) + 16
	w.totalWritten++
	return nil
}

// rotate closes the current segment, opens the next, and enforces Keep.
func (w *rotatingWriter) rotate() error {
	if err := w.closeCurrent(); err != nil {
		return err
	}
	w.seq++
	w.rotations++
	path := w.segmentPath(w.seq)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("capture: rotate: %w", err)
	}
	pw, err := NewPcapWriter(f, w.snaplen)
	if err != nil {
		f.Close()
		return err
	}
	w.cur, w.curWriter, w.curBytes = f, pw, 0
	w.curHasStart = false
	// Enforce retention.
	if old := w.seq - w.keep; old >= 1 {
		os.Remove(w.segmentPath(old))
	}
	return nil
}

func (w *rotatingWriter) segmentPath(seq int) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s-%06d.pcap", w.prefix, seq))
}

func (w *rotatingWriter) closeCurrent() error {
	if w.cur == nil {
		return nil
	}
	if err := w.curWriter.Flush(); err != nil {
		w.cur.Close()
		return err
	}
	err := w.cur.Close()
	w.cur, w.curWriter = nil, nil
	return err
}

// Close flushes and closes the active segment.
func (w *rotatingWriter) Close() error { return w.closeCurrent() }

// segments lists retained segment paths, oldest first.
func (w *rotatingWriter) segments() ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(w.dir, w.prefix+"-*.pcap"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// stats reports total records written and rotations performed.
func (w *rotatingWriter) stats() (records uint64, rotations int) {
	return w.totalWritten, w.rotations
}
