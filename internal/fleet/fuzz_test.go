package fleet

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzFleetFrame drives the wire decoder with arbitrary bytes. The
// invariants under fuzz:
//
//  1. decodeMessage/readMessage never panic; every failure is
//     errFrameCorrupt (structural) or an io error (truncation).
//  2. The streaming and in-memory decoders agree on well-formed input.
//  3. A successfully decoded message re-encodes to the identical bytes —
//     the encoding is canonical, so decode∘encode is the identity and a
//     single flipped bit can never round-trip cleanly.
func FuzzFleetFrame(f *testing.F) {
	f.Add(appendMessage(nil, msgHello, encodeHello("ucsb")))
	f.Add(appendMessage(nil, msgHelloAck, encodeHelloAck(12)))
	f.Add(appendMessage(nil, msgBatch, EncodeBatch(1, testFrames(3, 5), []uint16{0, 1, 2})))
	f.Add(appendMessage(nil, msgBatch, EncodeBatch(2, nil, nil)))
	f.Add(appendMessage(nil, msgAck, encodeAck(Ack{Seq: 2, First: 77, Ingested: 10, Shed: 1})))
	f.Add(appendMessage(nil, msgOverloaded, encodeSeq(9)))
	f.Add(appendMessage(nil, msgError, []byte("campus x: ingest wedged")))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		mt, payload, rest, err := decodeMessage(b)
		if err != nil {
			if !errors.Is(err, errFrameCorrupt) {
				t.Fatalf("decodeMessage error %v is not errFrameCorrupt", err)
			}
			// The streaming decoder must also refuse (with a frame or io
			// error), never panic.
			var scratch []byte
			if _, _, rerr := readMessage(bytes.NewReader(b), &scratch); rerr == nil {
				t.Fatal("ReadMessage accepted what decodeMessage refused")
			}
			return
		}
		// Streaming decoder agrees byte for byte.
		var scratch []byte
		rt, rp, rerr := readMessage(bytes.NewReader(b), &scratch)
		if rerr != nil || rt != mt || !bytes.Equal(rp, payload) {
			t.Fatalf("ReadMessage disagrees: %v %v vs %v", rt, rerr, mt)
		}
		consumed := b[:len(b)-len(rest)]
		if got := appendMessage(nil, mt, payload); !bytes.Equal(got, consumed) {
			t.Fatal("message re-encode differs")
		}

		// Payload decoders: never panic, typed errors, canonical re-encode.
		switch mt {
		case msgHello:
			campus, version, err := decodeHello(payload)
			if err != nil {
				if !errors.Is(err, errFrameCorrupt) {
					t.Fatalf("DecodeHello: %v", err)
				}
			} else if version == protocolVersion && !bytes.Equal(encodeHello(campus), payload) {
				t.Fatal("hello re-encode differs")
			}
		case msgHelloAck:
			version, lastSeq, err := decodeHelloAck(payload)
			if err != nil {
				if !errors.Is(err, errFrameCorrupt) {
					t.Fatalf("DecodeHelloAck: %v", err)
				}
			} else if version == protocolVersion && !bytes.Equal(encodeHelloAck(lastSeq), payload) {
				t.Fatal("hello-ack re-encode differs")
			}
		case msgBatch:
			seq, frames, links, err := DecodeBatch(payload)
			if err != nil {
				if !errors.Is(err, errFrameCorrupt) {
					t.Fatalf("DecodeBatch: %v", err)
				}
			} else if !bytes.Equal(EncodeBatch(seq, frames, links), payload) {
				t.Fatal("batch re-encode differs")
			}
		case msgAck:
			ack, err := decodeAck(payload)
			if err != nil {
				if !errors.Is(err, errFrameCorrupt) {
					t.Fatalf("DecodeAck: %v", err)
				}
			} else if !bytes.Equal(encodeAck(ack), payload) {
				t.Fatal("ack re-encode differs")
			}
		case msgOverloaded:
			seq, err := decodeSeq(payload)
			if err != nil {
				if !errors.Is(err, errFrameCorrupt) {
					t.Fatalf("DecodeSeq: %v", err)
				}
			} else if !bytes.Equal(encodeSeq(seq), payload) {
				t.Fatal("seq re-encode differs")
			}
		}
	})
}
