package frame_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/fleet"
	"campuslab/internal/frame"
	"campuslab/internal/traffic"
)

// The three containers that carry packet records — a WAL record, a fleet
// batch and a snapshot's packet block — share one record parser, so one
// malformed record gets one verdict. Every checksum below is recomputed
// over the malformed bytes: the only thing wrong is the field (or the
// count, or the tail) under test. At PR 17 the label and actor rows
// replayed from the WAL and loaded from the snapshot; only the fleet
// refused them.

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

// snapshotOf wraps a record list as the one packet block of a v4 snapshot
// whose header claims the list's count, no events, no flows, base ID 0 and
// a TS watermark of last.
func snapshotOf(list []byte, last time.Duration) []byte {
	le := binary.LittleEndian
	b := le.AppendUint16([]byte("CLDS"), 4)
	header := le.AppendUint64(le.AppendUint64(le.AppendUint64(nil, uint64(le.Uint32(list))), 0), 0)
	b = frame.AppendBlock(b, le.AppendUint64(le.AppendUint64(header, 0), uint64(last)))
	return frame.AppendBlock(b, list)
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
			// Fleet: a MsgBatch whose message checksum is right.
			msg := fleet.AppendMessage(nil, fleet.MsgBatch, append(le.AppendUint64(nil, 5), tc.list...))
			_, payload, _, err := fleet.DecodeMessage(msg)
			if err != nil {
				t.Fatalf("message framing refused: %v", err)
			}
			if _, _, _, err := fleet.DecodeBatch(payload); (err == nil) != tc.ok || (err != nil && !errors.Is(err, fleet.ErrFrameCorrupt)) {
				t.Errorf("fleet.DecodeBatch: %v", err)
			}

			// WAL: one acked batch, then the record under test appended to
			// the same segment as a block whose checksum is right.
			dir := t.TempDir()
			w, err := datastore.OpenWAL(datastore.WALConfig{Dir: dir, Fsync: datastore.FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(prefix, nil); err != nil {
				t.Fatal(err)
			}
			w.Close()
			seg, err := datastore.NewestWALSegment(dir)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(frame.AppendBlock(nil, tc.list)); err != nil {
				t.Fatal(err)
			}
			f.Close()
			var replayed [][]traffic.Frame
			records, clean, err := datastore.ReplayWALFrom(dir, 0, func(frames []traffic.Frame, _ []uint16) {
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

			// Snapshot: the same list as its packet block.
			st, err := datastore.Load(bytes.NewReader(snapshotOf(tc.list, prefix[2].TS)))
			if (err == nil) != tc.ok || (err != nil && !errors.Is(err, datastore.ErrBadSnapshot)) {
				t.Errorf("datastore.Load: %v", err)
			}
			if tc.ok && st.Stats().Packets != 3 {
				t.Errorf("loaded %d packets, want 3", st.Stats().Packets)
			}
		})
	}
}
