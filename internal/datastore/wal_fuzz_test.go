package datastore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"campuslab/internal/faults"
	"campuslab/internal/traffic"
)

// walFuzzSeg builds a real segment's bytes (n records) for seeding.
func walFuzzSeg(f *testing.F, n int) []byte {
	f.Helper()
	dir := f.TempDir()
	w, err := openWAL(faults.OS, walConfig{Dir: dir, Fsync: fsyncNone})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.append(walFrames(2, i), nil); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	seg, err := NewestWALSegment(dir)
	if err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(seg)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzWALReplay drives replay with arbitrary segment tails. The first
// input byte picks how many real acked records precede the fuzz bytes;
// the rest is splatted after them as a simulated torn/corrupt tail.
// Invariants: replay never panics and never errors on a readable
// directory; it is deterministic; and whatever it applies always has the
// acked record stream as an exact prefix — corruption can cost the tail,
// never rewrite history.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3})
	f.Add([]byte("CLWL\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01"))
	f.Add(append([]byte{1}, walFuzzSeg(f, 2)...))
	f.Add(append([]byte{2}, bytes.Repeat([]byte{0xff}, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		nValid := 0
		var tail []byte
		if len(data) > 0 {
			nValid = int(data[0]) % 4
			tail = data[1:]
		}
		w, err := openWAL(faults.OS, walConfig{Dir: dir, Fsync: fsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		var acked [][]traffic.Frame
		for i := 0; i < nValid; i++ {
			frames := walFrames(3, i)
			if err := w.append(frames, nil); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, frames)
		}
		w.Close()
		seg, err := NewestWALSegment(dir)
		if err != nil {
			t.Fatal(err)
		}
		fh, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(tail); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		// A second, intact-looking segment after the corrupted one: replay
		// must not resurrect it past a tear (prefix rule), and must still
		// never panic on whatever the combination decodes to.
		if len(tail) > 0 && tail[0]%2 == 1 {
			os.WriteFile(filepath.Join(dir, segName(2)), tail, 0o644)
		}

		replay := func() [][]traffic.Frame {
			var got [][]traffic.Frame
			_, _, err := replayWAL(faults.OS, dir, 0, func(frames []traffic.Frame, links []uint16) {
				cp := make([]traffic.Frame, len(frames))
				for i := range frames {
					cp[i] = frames[i]
					cp[i].Data = append([]byte(nil), frames[i].Data...)
				}
				got = append(got, cp)
			})
			if err != nil {
				t.Fatalf("replay error on readable dir: %v", err)
			}
			return got
		}
		got1, got2 := replay(), replay()
		if len(got1) != len(got2) {
			t.Fatalf("replay not deterministic: %d vs %d records", len(got1), len(got2))
		}
		if len(got1) < len(acked) {
			t.Fatalf("replay lost acked records: got %d, acked %d", len(got1), len(acked))
		}
		for i, frames := range acked {
			if len(got1[i]) != len(frames) {
				t.Fatalf("record %d: %d frames, acked %d", i, len(got1[i]), len(frames))
			}
			for j := range frames {
				g, w := got1[i][j], frames[j]
				if g.TS != w.TS || g.Label != w.Label || g.Actor != w.Actor || !bytes.Equal(g.Data, w.Data) {
					t.Fatalf("record %d frame %d diverged from acked stream", i, j)
				}
			}
		}
		for i := range got1 {
			for j := range got1[i] {
				if !bytes.Equal(got1[i][j].Data, got2[i][j].Data) {
					t.Fatalf("replay not deterministic at record %d", i)
				}
			}
		}
	})
}
