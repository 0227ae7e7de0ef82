package datastore

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// FuzzSnapshotLoad drives the checkpoint reader with arbitrary bytes,
// seeded with the pinned v7 checkpoint, an empty store's, one holding two
// flows tied on first time and key hash, and the retired v2 to v6 files
// (refused by version). Invariants: load never panics; it either refuses
// the input with an error wrapping errBadSnapshot or returns a store whose
// checkpoint, at the base ID and replay position it read, re-encodes
// exactly the input (the layout is canonical); and what it allocates is
// bounded by the bytes present, never driven by a count the input claims.
// The engine spends a short session minimizing; add -fuzzminimizetime 1x
// for a long one.
func FuzzSnapshotLoad(f *testing.F) {
	f.Add(formatFixture(f, "snapshot-v7-checkpoint.clds"))
	twins := New()
	for _, fr := range twinFlowFrames(f) {
		twins.IngestFrame(&fr)
	}
	for _, st := range []*Store{New(), twins} {
		f.Add(checkpointBytes(f, st))
	}
	for _, name := range []string{"v2", "v3", "v4-untiered", "v5-untiered", "v5-tiered", "v5-checkpoint", "v6-checkpoint"} {
		f.Add(formatFixture(f, "snapshot-"+name+".clds"))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, base, pos, err := load(bytes.NewReader(in), 0)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20+256*uint64(len(in)) {
			t.Fatalf("loading %d bytes allocated %d", len(in), n)
		}
		if err != nil {
			if !errors.Is(err, errBadSnapshot) {
				t.Fatalf("load error %v does not wrap errBadSnapshot", err)
			}
			return
		}
		var out bytes.Buffer
		unlock := st.rlockAll()
		err = st.encodeLocked(&out, base, pos)
		unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("loaded %d bytes, re-encoded %d different ones", len(in), out.Len())
		}
	})
}
