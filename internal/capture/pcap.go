package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// pcap file constants (nanosecond-resolution variant).
const (
	pcapMagicNanos = 0xa1b23c4d
	pcapMagicMicro = 0xa1b2c3d4
	pcapVersionMaj = 2
	pcapVersionMin = 4
	linkTypeEther  = 1
	// maxSnaplen is libpcap's MAXIMUM_SNAPLEN: no record body is longer,
	// whatever a file's header claims.
	maxSnaplen = 262144
)

// errBadPcap reports a malformed pcap stream.
var errBadPcap = errors.New("capture: malformed pcap")

// PcapWriter streams Records into the classic libpcap file format
// (nanosecond timestamps, Ethernet link type), so captures interoperate
// with standard tooling.
type PcapWriter struct {
	w       *bufio.Writer
	snaplen uint32
	hdr     [16]byte
}

// NewPcapWriter writes a pcap global header to w and returns the writer.
// snaplen 0 means "no snapping" (65535).
func NewPcapWriter(w io.Writer, snaplen int) (*PcapWriter, error) {
	if snaplen <= 0 || snaplen > 65535 {
		snaplen = 65535
	}
	pw := &PcapWriter{w: bufio.NewWriterSize(w, 1<<16), snaplen: uint32(snaplen)}
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:4], pcapMagicNanos)
	binary.LittleEndian.PutUint16(gh[4:6], pcapVersionMaj)
	binary.LittleEndian.PutUint16(gh[6:8], pcapVersionMin)
	binary.LittleEndian.PutUint32(gh[16:20], pw.snaplen)
	binary.LittleEndian.PutUint32(gh[20:24], linkTypeEther)
	if _, err := pw.w.Write(gh[:]); err != nil {
		return nil, fmt.Errorf("capture: writing pcap header: %w", err)
	}
	return pw, nil
}

// Write appends one record. Frames longer than snaplen are snapped; the
// original length is preserved in the per-packet header.
func (pw *PcapWriter) Write(rec *Record) error {
	capLen := uint32(len(rec.Data))
	if capLen > pw.snaplen {
		capLen = pw.snaplen
	}
	sec := uint32(rec.TS / time.Second)
	nsec := uint32(rec.TS % time.Second)
	binary.LittleEndian.PutUint32(pw.hdr[0:4], sec)
	binary.LittleEndian.PutUint32(pw.hdr[4:8], nsec)
	binary.LittleEndian.PutUint32(pw.hdr[8:12], capLen)
	binary.LittleEndian.PutUint32(pw.hdr[12:16], uint32(len(rec.Data)))
	if _, err := pw.w.Write(pw.hdr[:]); err != nil {
		return err
	}
	if _, err := pw.w.Write(rec.Data[:capLen]); err != nil {
		return err
	}
	return nil
}

// Flush drains buffered bytes to the underlying writer.
func (pw *PcapWriter) Flush() error { return pw.w.Flush() }

// PcapReader reads records back from a pcap stream written by PcapWriter
// (it also accepts microsecond-resolution files).
type PcapReader struct {
	r     *bufio.Reader
	nanos bool
	snap  uint32
}

// NewPcapReader validates the global header and returns a reader.
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	pr := &PcapReader{r: bufio.NewReaderSize(r, 1<<16)}
	var gh [24]byte
	if _, err := io.ReadFull(pr.r, gh[:]); err != nil {
		return nil, fmt.Errorf("%w: global header: %v", errBadPcap, err)
	}
	switch binary.LittleEndian.Uint32(gh[0:4]) {
	case pcapMagicNanos:
		pr.nanos = true
	case pcapMagicMicro:
		pr.nanos = false
	default:
		return nil, fmt.Errorf("%w: magic %#x", errBadPcap, binary.LittleEndian.Uint32(gh[0:4]))
	}
	if lt := binary.LittleEndian.Uint32(gh[20:24]); lt != linkTypeEther {
		return nil, fmt.Errorf("%w: link type %d", errBadPcap, lt)
	}
	pr.snap = binary.LittleEndian.Uint32(gh[16:20])
	return pr, nil
}

// Next reads the next record, allocating its Data. io.EOF marks a clean
// end of stream.
func (pr *PcapReader) Next(rec *Record) error {
	var hdr [16]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("%w: record header: %v", errBadPcap, err)
	}
	sec := binary.LittleEndian.Uint32(hdr[0:4])
	sub := binary.LittleEndian.Uint32(hdr[4:8])
	capLen := binary.LittleEndian.Uint32(hdr[8:12])
	if capLen > maxSnaplen {
		return fmt.Errorf("%w: caplen %d > %d", errBadPcap, capLen, maxSnaplen)
	}
	if capLen > pr.snap && pr.snap > 0 {
		return fmt.Errorf("%w: caplen %d > snaplen %d", errBadPcap, capLen, pr.snap)
	}
	if pr.nanos {
		rec.TS = time.Duration(sec)*time.Second + time.Duration(sub)
	} else {
		rec.TS = time.Duration(sec)*time.Second + time.Duration(sub)*time.Microsecond
	}
	rec.Data = make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, rec.Data); err != nil {
		return fmt.Errorf("%w: record body: %v", errBadPcap, err)
	}
	return nil
}
