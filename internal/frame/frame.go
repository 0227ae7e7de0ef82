// Package frame owns the two byte layouts that every campuslab container
// carrying packet records shares, so each has one writer and one reader
// (all integers little-endian):
//
//	checked block:  payload len u32 | payload crc32 (IEEE) u32 | payload
//	record list:    count u32, then per record:
//	                ts i64 | link u16 | label u8 | actor u8 | dlen u32 | data
//
// A WAL record is a block holding a list; a fleet message is a type byte
// and a block, its batch payload a u64 sequence and a list; a segment
// column is an id byte and a block; a snapshot is checked blocks: a header
// block, blocks of record lists, then event and flow blocks. The
// containers keep their magics, versions and error sentinels (DESIGN.md
// §16) and wrap ErrCorrupt in them.
//
// Decoding never panics and never allocates from an unchecked length.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"campuslab/internal/traffic"
)

const (
	// BlockHeaderSize is a block's length + checksum prefix.
	BlockHeaderSize = 4 + 4
	// MaxBlock bounds one WAL record or fleet message payload: a flipped
	// length byte must not drive a huge allocation.
	MaxBlock = 64 << 20
	// RecordHeaderSize is one packet record's fixed fields.
	RecordHeaderSize = 8 + 2 + 1 + 1 + 4
	// MaxRecordData bounds one packet record's raw bytes.
	MaxRecordData = 1 << 20
)

// ErrCorrupt reports bytes that fail structural validation or a checksum.
var ErrCorrupt = errors.New("frame: corrupt")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Sum is the checksum a block stores: CRC-32 (IEEE) of its payload.
func Sum(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

// AppendBlock appends payload to dst as one checked block.
func AppendBlock(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Sum(payload))
	return append(dst, payload...)
}

// SealBlock fills in the header of a block built in place: the caller
// reserved b[:BlockHeaderSize] and appended the payload after it.
func SealBlock(b []byte) {
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-BlockHeaderSize))
	binary.LittleEndian.PutUint32(b[4:8], Sum(b[BlockHeaderSize:]))
}

// Next splits one block off the front of b: its payload (aliasing b), the
// stored checksum, and the rest. The check is structural only — the length
// against max and against the bytes present — so a reader that may never
// touch the payload does not pay for its checksum; Check verifies it.
func Next(b []byte, max int) (payload []byte, sum uint32, rest []byte, err error) {
	if len(b) < BlockHeaderSize {
		return nil, 0, nil, corrupt("short block header (%d bytes)", len(b))
	}
	n := uint64(binary.LittleEndian.Uint32(b[:4]))
	if n > uint64(max) || n > uint64(len(b)-BlockHeaderSize) {
		return nil, 0, nil, corrupt("block claims %d bytes (cap %d, %d present)", n, max, len(b)-BlockHeaderSize)
	}
	end := BlockHeaderSize + int(n)
	return b[BlockHeaderSize:end:end], binary.LittleEndian.Uint32(b[4:8]), b[end:], nil
}

// Check verifies a payload against the checksum stored with it.
func Check(payload []byte, sum uint32) error {
	if got := Sum(payload); got != sum {
		return corrupt("checksum %08x != %08x", got, sum)
	}
	return nil
}

// ReadBlock reads and verifies one block from r, reusing *scratch for
// header and payload. io.EOF before the first header byte is returned as
// io.EOF (a clean boundary), a cut anywhere later as io.ErrUnexpectedEOF;
// a length over max (refused before anything is allocated for it) or a
// checksum mismatch wraps ErrCorrupt.
func ReadBlock(r io.Reader, max int, scratch *[]byte) ([]byte, error) {
	if cap(*scratch) < BlockHeaderSize {
		*scratch = make([]byte, BlockHeaderSize)
	}
	hdr := (*scratch)[:BlockHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n, sum := binary.LittleEndian.Uint32(hdr[:4]), binary.LittleEndian.Uint32(hdr[4:8])
	if uint64(n) > uint64(max) {
		return nil, corrupt("block claims %d bytes (cap %d)", n, max)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	payload := (*scratch)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if err := Check(payload, sum); err != nil {
		return nil, err
	}
	return payload, nil
}

// recordHeader is one packet record's fixed fields; DataLen raw bytes
// follow it.
type recordHeader struct {
	TS      time.Duration
	Link    uint16
	Label   traffic.Label
	Actor   bool
	DataLen int
}

// appendTo appends the header's RecordHeaderSize bytes.
func (h recordHeader) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.TS))
	dst = binary.LittleEndian.AppendUint16(dst, h.Link)
	actor := byte(0)
	if h.Actor {
		actor = 1
	}
	dst = append(dst, byte(h.Label), actor)
	return binary.LittleEndian.AppendUint32(dst, uint32(h.DataLen))
}

// parseRecordHeader parses the header at the front of b under the one
// rule set every container shares — label in its domain, actor byte 0 or
// 1, data length within MaxRecordData — so a record the fleet refuses
// does not replay from a WAL or load from a snapshot either.
func parseRecordHeader(b []byte) (recordHeader, error) {
	if len(b) < RecordHeaderSize {
		return recordHeader{}, corrupt("short record header (%d bytes)", len(b))
	}
	label, actor, dlen := b[10], b[11], binary.LittleEndian.Uint32(b[12:16])
	if label >= byte(traffic.NumLabels) || actor > 1 || dlen > MaxRecordData {
		return recordHeader{}, corrupt("record label %d, actor byte %d, %d data bytes", label, actor, dlen)
	}
	return recordHeader{
		TS:      time.Duration(binary.LittleEndian.Uint64(b[:8])),
		Link:    binary.LittleEndian.Uint16(b[8:10]),
		Label:   traffic.Label(label),
		Actor:   actor == 1,
		DataLen: int(dlen),
	}, nil
}

// RecordsSize is the encoded size of a record list, so an encoder sizes
// its buffer once.
func RecordsSize(frames []traffic.Frame) int {
	n := 4
	for i := range frames {
		n += RecordHeaderSize + len(frames[i].Data)
	}
	return n
}

// AppendRecords appends frames' stored fields as a record list. links may
// be nil (all link 0). The encoding is canonical: DecodeRecords followed
// by AppendRecords reproduces the input bytes exactly.
func AppendRecords(dst []byte, frames []traffic.Frame, links []uint16) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(frames)))
	for i := range frames {
		f := &frames[i]
		h := recordHeader{TS: f.TS, Label: f.Label, Actor: f.Actor, DataLen: len(f.Data)}
		if links != nil {
			h.Link = links[i]
		}
		dst = append(h.appendTo(dst), f.Data...)
	}
	return dst
}

// DecodeRecords parses a record list that must fill p exactly: a count the
// bytes present could not hold, a record parseRecordHeader refuses, data
// running past the end and trailing bytes are all ErrCorrupt. Frame Data
// is copied out of p, so the caller may reuse its read buffer: every
// record's bytes go into one arena for the list, sized from the bytes
// present (what p holds beyond count headers), and each frame gets a
// cap-limited sub-slice of it, so appending to one frame's Data cannot
// reach its neighbour's. The arena lives as long as any frame cut from it.
func DecodeRecords(p []byte) (frames []traffic.Frame, links []uint16, err error) {
	if len(p) < 4 {
		return nil, nil, corrupt("short record list (%d bytes)", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	if p = p[4:]; uint64(count) > uint64(len(p)/RecordHeaderSize) {
		return nil, nil, corrupt("list claims %d records in %d bytes", count, len(p))
	}
	frames = make([]traffic.Frame, 0, count)
	links = make([]uint16, 0, count)
	arena := make([]byte, 0, len(p)-int(count)*RecordHeaderSize)
	for i := uint32(0); i < count; i++ {
		h, err := parseRecordHeader(p)
		// room is what p holds beyond the headers still owed, so a record
		// that fits it also fits p and the arena never regrows.
		if room := cap(arena) - len(arena); err == nil && h.DataLen > room {
			err = corrupt("%d data bytes claimed, %d remain", h.DataLen, room)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%w (record %d)", err, i)
		}
		at := len(arena)
		arena = append(arena, p[RecordHeaderSize:RecordHeaderSize+h.DataLen]...)
		p = p[RecordHeaderSize+h.DataLen:]
		frames = append(frames, traffic.Frame{TS: h.TS, Data: arena[at:len(arena):len(arena)], Label: h.Label, Actor: h.Actor})
		links = append(links, h.Link)
	}
	if len(p) != 0 {
		return nil, nil, corrupt("%d trailing bytes after %d records", len(p), count)
	}
	return frames, links, nil
}
