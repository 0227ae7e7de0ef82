package datastore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
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

// TestWALRecordVerdicts: after one acked batch, the list under test is
// appended to the same segment as a block whose checksum is right. Replay
// gives it the record parser's verdict: a good list is a second record, a
// malformed one ends the log there, unclean, with the acked batch applied.
func TestWALRecordVerdicts(t *testing.T) {
	prefix, cases := recordVerdictCases()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys, dir := newMemFS(1), "/wal"
			w, err := openWAL(fsys, walConfig{Dir: dir, Fsync: fsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.append(prefix, nil); err != nil {
				t.Fatal(err)
			}
			w.Close()
			seqs, err := listSegments(fsys, dir)
			if err != nil || len(seqs) == 0 {
				t.Fatalf("no segment after an append: %v", err)
			}
			f, err := fsys.OpenFile(filepath.Join(dir, segName(seqs[len(seqs)-1])), os.O_WRONLY|os.O_APPEND)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(frame.AppendBlock(nil, tc.list)); err != nil {
				t.Fatal(err)
			}
			f.Close()
			var replayed [][]traffic.Frame
			records, clean, err := replayWAL(fsys, dir, 0, func(frames []traffic.Frame, _ []uint16) {
				replayed = append(replayed, frames)
			})
			if err != nil {
				t.Fatal(err)
			}
			wantRecords := uint64(1)
			if tc.ok {
				wantRecords = 2
			}
			if clean != tc.ok || records != wantRecords || !reflect.DeepEqual(replayed[0], prefix) {
				t.Errorf("WAL replay: %d records, clean=%v; want %d, clean=%v, the acked batch first", records, clean, wantRecords, tc.ok)
			}
		})
	}
}
