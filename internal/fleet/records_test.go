package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"campuslab/internal/frame"
	"campuslab/internal/traffic"
)

// recordVerdictCases is frame's TestOneRecordOneVerdict table: a
// well-formed three-record list and six malformed ones, each checksum
// recomputed so only the field (or the count, or the tail) under test is
// wrong.
func recordVerdictCases() (prefix []traffic.Frame, cases []recordVerdictCase) {
	prefix = make([]traffic.Frame, 3)
	for i := range prefix {
		prefix[i] = traffic.Frame{
			TS:    time.Duration(i+1) * time.Millisecond,
			Data:  bytes.Repeat([]byte{byte(0x40 + i)}, 20+i),
			Label: traffic.Label(i),
			Actor: i == 1,
		}
	}
	list := frame.AppendRecords(nil, prefix, []uint16{7, 8, 9})
	lastHdr := len(list) - len(prefix[2].Data) - frame.RecordHeaderSize
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(list)) }
	le := binary.LittleEndian
	return prefix, []recordVerdictCase{
		{"well-formed", list, true},
		{"label out of domain", mutate(func(b []byte) []byte { b[lastHdr+10] = byte(traffic.NumLabels); return b }), false},
		{"actor byte 2", mutate(func(b []byte) []byte { b[lastHdr+11] = 2; return b }), false},
		{"dlen over the cap", mutate(func(b []byte) []byte {
			le.PutUint32(b[lastHdr+12:], frame.MaxRecordData+1)
			return b
		}), false},
		{"count beyond the bytes", mutate(func(b []byte) []byte { le.PutUint32(b, 1<<30); return b }), false},
		{"one record too many", mutate(func(b []byte) []byte { le.PutUint32(b, 4); return b }), false},
		{"trailing bytes", mutate(func(b []byte) []byte { return append(b, 0, 0, 0) }), false},
	}
}

type recordVerdictCase struct {
	name string
	list []byte
	ok   bool
}

// TestBatchRecordVerdicts: a batch message whose framing and checksum are
// right gets the record parser's verdict on its list, and a refusal is
// errFrameCorrupt.
func TestBatchRecordVerdicts(t *testing.T) {
	_, cases := recordVerdictCases()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := appendMessage(nil, msgBatch, append(binary.LittleEndian.AppendUint64(nil, 5), tc.list...))
			_, payload, _, err := decodeMessage(msg)
			if err != nil {
				t.Fatalf("message framing refused: %v", err)
			}
			if _, _, _, err := DecodeBatch(payload); (err == nil) != tc.ok || (err != nil && !errors.Is(err, errFrameCorrupt)) {
				t.Errorf("DecodeBatch: %v", err)
			}
		})
	}
}
