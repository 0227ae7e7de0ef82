package fleet

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"campuslab/internal/traffic"
)

// testFrames builds n deterministic synthetic frames (arbitrary bytes —
// the wire layer must round-trip anything the WAL can hold).
func testFrames(n, seed int) []traffic.Frame {
	frames := make([]traffic.Frame, n)
	for i := range frames {
		data := make([]byte, 20+(seed+i)%80)
		for j := range data {
			data[j] = byte(seed + i + j)
		}
		frames[i] = traffic.Frame{
			TS:    time.Duration(i) * time.Millisecond,
			Data:  data,
			Label: traffic.Label((seed + i) % int(traffic.NumLabels)),
			Actor: i%2 == 0,
		}
	}
	return frames
}

func TestMessageRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range payloads {
		for mt := msgHello; mt < msgTypeEnd; mt++ {
			msg := appendMessage(nil, mt, p)
			gt, gp, rest, err := decodeMessage(msg)
			if err != nil {
				t.Fatalf("decode %v/%d bytes: %v", mt, len(p), err)
			}
			if gt != mt || !bytes.Equal(gp, p) || len(rest) != 0 {
				t.Fatalf("round trip %v/%d: got %v/%d, %d rest", mt, len(p), gt, len(gp), len(rest))
			}
		}
	}
}

func TestMessageDecodeRejectsCorruption(t *testing.T) {
	msg := appendMessage(nil, msgBatch, EncodeBatch(7, testFrames(3, 1), nil))
	// Every single-bit flip must be detected (type, length, CRC, payload).
	for i := range msg {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(msg)
			bad[i] ^= 1 << bit
			mt, p, _, err := decodeMessage(bad)
			if err == nil {
				// A flip confined to the type byte can still be a valid
				// type with a valid CRC-checked payload; anything else
				// must fail.
				if i == 0 && mt != msgBatch && bytes.Equal(p, msg[9:]) {
					continue
				}
				t.Fatalf("bit flip at byte %d bit %d decoded cleanly", i, bit)
			}
			if !errors.Is(err, errFrameCorrupt) {
				t.Fatalf("bit flip at byte %d bit %d: error %v is not errFrameCorrupt", i, bit, err)
			}
		}
	}
	// Truncation at every boundary.
	for n := 0; n < len(msg); n++ {
		if _, _, _, err := decodeMessage(msg[:n]); !errors.Is(err, errFrameCorrupt) {
			t.Fatalf("truncation to %d bytes: %v", n, err)
		}
	}
}

func TestReadMessageEOFSemantics(t *testing.T) {
	msg := appendMessage(nil, msgAck, encodeAck(Ack{Seq: 3, First: 100, Ingested: 50}))
	var scratch []byte

	// Clean read then boundary EOF.
	r := bytes.NewReader(msg)
	mt, p, err := readMessage(r, &scratch)
	if err != nil || mt != msgAck {
		t.Fatalf("read: %v %v", mt, err)
	}
	if a, err := decodeAck(p); err != nil || a.Seq != 3 || a.First != 100 || a.Ingested != 50 {
		t.Fatalf("ack round trip: %+v %v", a, err)
	}
	if _, _, err := readMessage(r, &scratch); err != io.EOF {
		t.Fatalf("boundary EOF: got %v", err)
	}

	// A cut anywhere inside the message is ErrUnexpectedEOF, never EOF.
	for n := 1; n < len(msg); n++ {
		_, _, err := readMessage(bytes.NewReader(msg[:n]), &scratch)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: got %v", n, err)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	frames := testFrames(17, 9)
	links := make([]uint16, len(frames))
	for i := range links {
		links[i] = uint16(i % 3)
	}
	payload := EncodeBatch(42, frames, links)
	seq, gotF, gotL, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || len(gotF) != len(frames) {
		t.Fatalf("seq=%d frames=%d", seq, len(gotF))
	}
	for i := range frames {
		f, g := &frames[i], &gotF[i]
		if f.TS != g.TS || f.Label != g.Label || f.Actor != g.Actor || !bytes.Equal(f.Data, g.Data) {
			t.Fatalf("frame %d differs: %+v vs %+v", i, f, g)
		}
		if gotL[i] != links[i] {
			t.Fatalf("link %d: %d vs %d", i, gotL[i], links[i])
		}
	}
	// Canonical: re-encoding the decoded batch reproduces the bytes.
	if !bytes.Equal(EncodeBatch(seq, gotF, gotL), payload) {
		t.Fatal("re-encode differs from original payload")
	}
	// Decoded Data must not alias the payload buffer.
	payload[len(payload)-1] ^= 0xFF
	last := gotF[len(gotF)-1]
	if last.Data[len(last.Data)-1] == payload[len(payload)-1] {
		t.Fatal("decoded frame data aliases the wire buffer")
	}
}

func TestBatchDecodeRejectsBadFields(t *testing.T) {
	frames := testFrames(2, 4)
	base := EncodeBatch(1, frames, nil)
	mut := func(f func(b []byte)) []byte {
		b := bytes.Clone(base)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"short header":   base[:11],
		"trailing bytes": append(bytes.Clone(base), 0),
		"huge count":     mut(func(b []byte) { b[8], b[9], b[10], b[11] = 0xFF, 0xFF, 0xFF, 0xFF }),
		"bad label":      mut(func(b []byte) { b[12+10] = byte(traffic.NumLabels) }),
		"bad actor":      mut(func(b []byte) { b[12+11] = 2 }),
		"huge dlen":      mut(func(b []byte) { b[12+12], b[12+13], b[12+14], b[12+15] = 0xFF, 0xFF, 0xFF, 0xFF }),
	}
	for name, b := range cases {
		if _, _, _, err := DecodeBatch(b); !errors.Is(err, errFrameCorrupt) {
			t.Errorf("%s: got %v, want errFrameCorrupt", name, err)
		}
	}
	// Empty batches are legal on the wire (the server acks them as no-ops).
	if _, f, _, err := DecodeBatch(EncodeBatch(5, nil, nil)); err != nil || len(f) != 0 {
		t.Fatalf("empty batch: %d frames, %v", len(f), err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, name := range []string{"ucsb", "a", string(bytes.Repeat([]byte{'x'}, maxCampusName))} {
		campus, version, err := decodeHello(encodeHello(name))
		if err != nil || campus != name || version != protocolVersion {
			t.Fatalf("hello %q: got %q v%d, %v", name, campus, version, err)
		}
	}
	bad := [][]byte{
		{}, []byte("CLF"), []byte("XXXX\x01\x00\x00\x00"),
		append(encodeHello("abc"), 'd'), // length shorter than payload
		encodeHello("abc")[:9],          // payload shorter than length
	}
	for i, b := range bad {
		if _, _, err := decodeHello(b); !errors.Is(err, errFrameCorrupt) {
			t.Errorf("bad hello %d: got %v", i, err)
		}
	}
	version, lastSeq, err := decodeHelloAck(encodeHelloAck(991))
	if err != nil || version != protocolVersion || lastSeq != 991 {
		t.Fatalf("hello-ack: v%d seq=%d %v", version, lastSeq, err)
	}
	if _, _, err := decodeHelloAck([]byte{1, 2, 3}); !errors.Is(err, errFrameCorrupt) {
		t.Fatalf("short hello-ack: %v", err)
	}
}

func TestSeqRoundTrip(t *testing.T) {
	got, err := decodeSeq(encodeSeq(1 << 40))
	if err != nil || got != 1<<40 {
		t.Fatalf("seq: %d %v", got, err)
	}
	if _, err := decodeSeq([]byte{1}); !errors.Is(err, errFrameCorrupt) {
		t.Fatalf("short seq: %v", err)
	}
}

// TestFormatBatchMessagePinned decodes a framed msgBatch written by PR 17's
// hand-rolled appendMessage + EncodeBatch (testdata/format/batch.msg: seq 7,
// four campus frames, links 0, 1, 2, 513) and re-encodes it: the move onto
// internal/frame changed no wire byte.
func TestFormatBatchMessagePinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "format", "batch.msg"))
	if err != nil {
		t.Fatal(err)
	}
	mt, payload, rest, err := decodeMessage(want)
	if err != nil || mt != msgBatch || len(rest) != 0 {
		t.Fatalf("decodeMessage: %v %v, %d trailing bytes", mt, err, len(rest))
	}
	var scratch []byte
	if rt, rp, err := readMessage(bytes.NewReader(want), &scratch); err != nil || rt != mt || !bytes.Equal(rp, payload) {
		t.Fatalf("ReadMessage disagrees with decodeMessage: %v %v", rt, err)
	}
	seq, frames, links, err := DecodeBatch(payload)
	if err != nil || seq != 7 || len(frames) != 4 || links[3] != 513 {
		t.Fatalf("DecodeBatch: seq %d, %d frames, links %v, err %v", seq, len(frames), links, err)
	}
	if got := appendMessage(nil, msgBatch, EncodeBatch(seq, frames, links)); !bytes.Equal(got, want) {
		t.Fatal("re-encoded message differs from the pinned one")
	}
}
