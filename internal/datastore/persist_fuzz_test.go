package datastore

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// FuzzSnapshotLoad drives Load with arbitrary bytes, seeded with the pinned
// v6 exports, an empty store's, one holding two flows tied on first time
// and key hash, the pinned v6 checkpoint (which Load refuses: its hot rows
// are in a WAL) and the retired v5 files (refused by version). Invariants:
// Load never panics; it either refuses the input with an error wrapping
// ErrBadSnapshot or returns a store whose Save re-encodes exactly the input
// (the layout is canonical); and what it allocates is bounded by the bytes present, never
// driven by a count the input claims. Loading runs through ingest's pooled
// scratch, whose coverage differs from run to run, so the engine spends a
// short session minimizing; add -fuzzminimizetime 1x for a long one.
func FuzzSnapshotLoad(f *testing.F) {
	f.Add(formatFixture(f, "snapshot-v5-untiered.clds"))
	f.Add(formatFixture(f, "snapshot-v5-tiered.clds"))
	twins := New()
	for _, fr := range twinFlowFrames(f) {
		twins.IngestFrame(&fr)
	}
	for _, st := range []*Store{New(), twins} {
		var b bytes.Buffer
		if err := st.Save(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add(formatFixture(f, "snapshot-v5-checkpoint.clds"))
	for _, name := range []string{"untiered", "tiered", "checkpoint"} {
		f.Add(formatFixture(f, "snapshot-v6-"+name+".clds"))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Load(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20+256*uint64(len(in)) {
			t.Fatalf("loading %d bytes allocated %d", len(in), n)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("Load error %v does not wrap ErrBadSnapshot", err)
			}
			return
		}
		var out bytes.Buffer
		if err := st.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("loaded %d bytes, re-encoded %d different ones", len(in), out.Len())
		}
	})
}
