package frame_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"campuslab/internal/frame"
	"campuslab/internal/traffic"
)

// The two containers that carry packet records — a WAL record and a fleet
// batch — share one record parser, so one malformed record gets one
// verdict. Every checksum below is recomputed over the malformed bytes: the
// only thing wrong is the field (or the count, or the tail) under test.
// Before the parser was shared, the label and actor rows replayed from the
// WAL; only the fleet refused them. This test gives each row its verdict at
// the parser; datastore's TestWALRecordVerdicts and fleet's
// TestBatchRecordVerdicts run the same table through their containers.

func goodFrames() []traffic.Frame {
	frames := make([]traffic.Frame, 3)
	for i := range frames {
		frames[i] = traffic.Frame{
			TS:    time.Duration(i+1) * time.Millisecond,
			Data:  bytes.Repeat([]byte{byte(0x40 + i)}, 20+i),
			Label: traffic.Label(i),
			Actor: i == 1,
		}
	}
	return frames
}

func TestOneRecordOneVerdict(t *testing.T) {
	prefix := goodFrames()
	list := frame.AppendRecords(nil, prefix, []uint16{7, 8, 9})
	lastHdr := len(list) - len(prefix[2].Data) - frame.RecordHeaderSize
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(list)) }
	le := binary.LittleEndian

	cases := []struct {
		name string
		list []byte
		ok   bool
	}{
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := frame.DecodeRecords(tc.list); (err == nil) != tc.ok || (err != nil && !errors.Is(err, frame.ErrCorrupt)) {
				t.Errorf("frame.DecodeRecords: %v", err)
			}
		})
	}
}
