// Package fleet turns campuslab into a multi-campus system: a binary
// streaming ingest protocol that lets remote campus nodes push labeled
// packet-record batches into a labd data store over TCP. The federated
// development round over the stores it fills is core.RunFederated.
//
// Wire format (all integers little-endian):
//
//	message: type u8, then a frame checked block:
//	         payload len u32 | payload crc32 u32 | payload
//
//	msgHello      payload: magic "CLFT" | version u16 |
//	              name len u16 | campus name
//	msgHelloAck   payload: version u16 | last acked batch seq u64
//	msgBatch      payload: batch seq u64, then a frame record list:
//	              frame count u32, per frame:
//	              ts i64 | link u16 | label u8 | actor u8 | dlen u32 | data
//	msgAck        payload: batch seq u64 | first packet id u64 |
//	              ingested u32 | shed u32
//	msgOverloaded payload: batch seq u64   (backpressure: retry later)
//	msgError      payload: utf-8 reason    (fatal for the stream)
//
// Batches are CRC-framed so a cut connection or bit rot is detected
// before any frame reaches the store: a batch is ingested entirely or not
// at all, and an acked batch rides the store's admission + WAL path, so a
// msgAck is a durability acknowledgment whenever the serving store is
// durable. Batch sequence numbers are per-campus and strictly
// consecutive; the server remembers the last acked sequence per campus
// and answers a re-sent batch from its ack cache without re-ingesting, so
// client retry after a torn connection never duplicates packet IDs.
package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"campuslab/internal/frame"
	"campuslab/internal/traffic"
)

// msgType tags one framed protocol message.
type msgType uint8

// Protocol message types.
const (
	msgHello msgType = iota + 1
	msgHelloAck
	msgBatch
	msgAck
	msgOverloaded
	msgError
	msgTypeEnd
)

// String names the message type (errors, tests).
func (t msgType) String() string {
	switch t {
	case msgHello:
		return "hello"
	case msgHelloAck:
		return "hello-ack"
	case msgBatch:
		return "batch"
	case msgAck:
		return "ack"
	case msgOverloaded:
		return "overloaded"
	case msgError:
		return "error"
	}
	return fmt.Sprintf("msg-%d", uint8(t))
}

const (
	// helloMagic opens every stream; a dialer that is not a fleet client
	// is rejected at the first message.
	helloMagic = "CLFT"
	// protocolVersion is the handshake version both ends must speak.
	protocolVersion = 1

	// maxCampusName bounds the handshake's campus name.
	maxCampusName = 255
)

// errFrameCorrupt reports wire bytes that fail structural validation or
// checksum — truncation, bad type, oversized lengths, CRC mismatch. The
// decoder never panics on hostile input; it returns this.
var errFrameCorrupt = errors.New("fleet: frame corrupt")

// corrupt re-types a frame decoding error as the protocol's sentinel.
func corrupt(err error) error { return fmt.Errorf("%w: %v", errFrameCorrupt, err) }

// checkType rejects a type byte outside the protocol.
func checkType(b byte) (msgType, error) {
	if t := msgType(b); t >= msgHello && t < msgTypeEnd {
		return t, nil
	}
	return 0, fmt.Errorf("%w: unknown message type %d", errFrameCorrupt, b)
}

// appendMessage appends one framed message to dst and returns it.
func appendMessage(dst []byte, t msgType, payload []byte) []byte {
	return frame.AppendBlock(append(dst, byte(t)), payload)
}

// decodeMessage parses one framed message from the front of b, returning
// the type, its payload (aliasing b), and the remaining bytes.
func decodeMessage(b []byte) (t msgType, payload, rest []byte, err error) {
	if len(b) == 0 {
		return 0, nil, nil, fmt.Errorf("%w: empty message", errFrameCorrupt)
	}
	if t, err = checkType(b[0]); err != nil {
		return 0, nil, nil, err
	}
	payload, sum, rest, err := frame.Next(b[1:], frame.MaxBlock)
	if err == nil {
		err = frame.Check(payload, sum)
	}
	if err != nil {
		return 0, nil, nil, corrupt(err)
	}
	return t, payload, rest, nil
}

// readMessage reads one framed message from r, reusing *scratch for the
// payload. io.EOF at a message boundary is returned as io.EOF; a
// mid-message cut is io.ErrUnexpectedEOF; corruption is errFrameCorrupt.
func readMessage(r io.Reader, scratch *[]byte) (msgType, []byte, error) {
	var tb [1]byte
	if _, err := io.ReadFull(r, tb[:]); err != nil {
		return 0, nil, err
	}
	t, err := checkType(tb[0])
	if err != nil {
		return 0, nil, err
	}
	payload, err := frame.ReadBlock(r, frame.MaxBlock, scratch)
	switch {
	case err == io.EOF: // the type byte was read: this is not a boundary
		return 0, nil, io.ErrUnexpectedEOF
	case errors.Is(err, frame.ErrCorrupt):
		return 0, nil, corrupt(err)
	case err != nil:
		return 0, nil, err
	}
	return t, payload, nil
}

// encodeHello builds the handshake payload for a campus name.
func encodeHello(campus string) []byte {
	b := make([]byte, 0, 8+len(campus))
	b = append(b, helloMagic...)
	b = binary.LittleEndian.AppendUint16(b, protocolVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(campus)))
	return append(b, campus...)
}

// decodeHello parses a handshake payload into (campus, version).
func decodeHello(p []byte) (campus string, version uint16, err error) {
	if len(p) < 8 {
		return "", 0, fmt.Errorf("%w: short hello", errFrameCorrupt)
	}
	if string(p[:4]) != helloMagic {
		return "", 0, fmt.Errorf("%w: hello magic %q", errFrameCorrupt, p[:4])
	}
	version = binary.LittleEndian.Uint16(p[4:6])
	nlen := int(binary.LittleEndian.Uint16(p[6:8]))
	if nlen > maxCampusName || len(p) != 8+nlen {
		return "", 0, fmt.Errorf("%w: hello name length %d in %d payload bytes", errFrameCorrupt, nlen, len(p))
	}
	return string(p[8:]), version, nil
}

// encodeHelloAck builds the server's handshake reply: its protocol
// version and the last batch sequence it has acknowledged for this campus
// (0 = none), so a reconnecting client knows where to resume.
func encodeHelloAck(lastSeq uint64) []byte {
	b := make([]byte, 0, 10)
	b = binary.LittleEndian.AppendUint16(b, protocolVersion)
	return binary.LittleEndian.AppendUint64(b, lastSeq)
}

// decodeHelloAck parses the handshake reply.
func decodeHelloAck(p []byte) (version uint16, lastSeq uint64, err error) {
	if len(p) != 10 {
		return 0, 0, fmt.Errorf("%w: hello-ack length %d", errFrameCorrupt, len(p))
	}
	return binary.LittleEndian.Uint16(p[0:2]), binary.LittleEndian.Uint64(p[2:10]), nil
}

// EncodeBatch serializes a batch payload: the client-assigned sequence
// number and every frame's stored fields (timestamp, link, ground-truth
// label, actor bit, raw bytes). links may be nil (all link 0). The
// encoding is canonical: DecodeBatch followed by EncodeBatch reproduces
// the input bytes exactly.
func EncodeBatch(seq uint64, frames []traffic.Frame, links []uint16) []byte {
	b := make([]byte, 0, 8+frame.RecordsSize(frames))
	b = binary.LittleEndian.AppendUint64(b, seq)
	return frame.AppendRecords(b, frames, links)
}

// appendBatchMessage builds one whole msgBatch message in dst[:0] — type
// byte, block header, sequence, record list — and seals the block in
// place, so a sender that keeps dst encodes a batch with no allocation and
// no second copy. The bytes equal appendMessage(nil, msgBatch,
// EncodeBatch(seq, frames, links)).
func appendBatchMessage(dst []byte, seq uint64, frames []traffic.Frame, links []uint16) []byte {
	const head = 1 + frame.BlockHeaderSize
	if need := head + 8 + frame.RecordsSize(frames); cap(dst) < need {
		dst = make([]byte, head, need)
	}
	dst = dst[:head]
	dst[0] = byte(msgBatch)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = frame.AppendRecords(dst, frames, links)
	frame.SealBlock(dst[1:])
	return dst
}

// DecodeBatch parses a batch payload. Frame Data slices are copied out of
// p, so the caller may reuse its read buffer. Trailing bytes are
// corruption: the encoding is canonical.
func DecodeBatch(p []byte) (seq uint64, frames []traffic.Frame, links []uint16, err error) {
	if len(p) < 8 {
		return 0, nil, nil, fmt.Errorf("%w: short batch header", errFrameCorrupt)
	}
	if frames, links, err = frame.DecodeRecords(p[8:]); err != nil {
		return 0, nil, nil, corrupt(err)
	}
	return binary.LittleEndian.Uint64(p), frames, links, nil
}

// Ack is the server's acknowledgment of one ingested batch.
type Ack struct {
	// Seq echoes the batch sequence number.
	Seq uint64
	// First is the PacketID of the first stored frame (meaningless when
	// Ingested == 0); stored frames take consecutive IDs.
	First uint64
	// Ingested counts frames stored (durably, when the store has a WAL).
	Ingested uint32
	// Shed counts low-priority frames the admission gate dropped.
	Shed uint32
}

// encodeAck serializes an acknowledgment payload.
func encodeAck(a Ack) []byte {
	b := make([]byte, 0, 24)
	b = binary.LittleEndian.AppendUint64(b, a.Seq)
	b = binary.LittleEndian.AppendUint64(b, a.First)
	b = binary.LittleEndian.AppendUint32(b, a.Ingested)
	return binary.LittleEndian.AppendUint32(b, a.Shed)
}

// decodeAck parses an acknowledgment payload.
func decodeAck(p []byte) (Ack, error) {
	if len(p) != 24 {
		return Ack{}, fmt.Errorf("%w: ack length %d", errFrameCorrupt, len(p))
	}
	return Ack{
		Seq:      binary.LittleEndian.Uint64(p[0:8]),
		First:    binary.LittleEndian.Uint64(p[8:16]),
		Ingested: binary.LittleEndian.Uint32(p[16:20]),
		Shed:     binary.LittleEndian.Uint32(p[20:24]),
	}, nil
}

// encodeSeq serializes a bare sequence payload (msgOverloaded).
func encodeSeq(seq uint64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), seq)
}

// decodeSeq parses a bare sequence payload.
func decodeSeq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: seq length %d", errFrameCorrupt, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}
