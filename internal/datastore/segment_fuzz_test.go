package datastore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"campuslab/internal/traffic"
)

// fuzzSeedSegment builds a small deterministic segment blob for the fuzz
// seed corpus (mirrors segTestRows but without *testing.T plumbing).
func fuzzSeedSegment(n int) []byte {
	g := traffic.NewCampus(traffic.Profile{
		Plan: traffic.DefaultPlan(8), FlowsPerSecond: 40,
		Duration: time.Second, Seed: 7,
	})
	s := NewSharded(1)
	for _, f := range traffic.Collect(g, 0) {
		f := f
		s.IngestFrame(&f)
	}
	var rows []StoredPacket
	s.Scan(func(sp *StoredPacket) bool {
		rows = append(rows, *sp)
		return len(rows) < n
	})
	blob, _, err := encodeSegment(rows)
	if err != nil {
		panic(err)
	}
	return blob
}

// FuzzSegmentDecode: for arbitrary bytes, the segment decoder must never
// panic; a failed decode must return a typed errSegmentCorrupt; and a
// successful decode must be a logical fixpoint — re-encoding the decoded
// rows and decoding again yields identical rows. (Byte identity is only
// guaranteed for encoder-canonical inputs: DEFLATE admits more than one
// valid stream for the same payload.)
func FuzzSegmentDecode(f *testing.F) {
	// Two v3 blobs seed the corpus: one this build encodes (a few hundred
	// rows, so it spans multiple blocks) and the one testdata/format pins.
	// Beside them go well-framed copies of the first whose summary stripe
	// holds what no parse yields (checksummed, so only the stripe decoder
	// can object), and the retired v1 and v2 fixtures. testdata/fuzz also
	// pins a four-block v2 blob from the level-4 writer.
	pinned, err := os.ReadFile(filepath.Join("testdata", "format", "tier", "seg-0000000000000000.clsg"))
	if err != nil {
		f.Fatal(err)
	}
	seed := fuzzSeedSegment(300)
	for _, valid := range [][]byte{seed, pinned} {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:segHeaderSize])
		mut := append([]byte(nil), valid...)
		mut[len(mut)/3] ^= 0x80
		f.Add(mut)
	}
	for _, bad := range malformedSummaryBlobs(f, seed) {
		f.Add(bad)
	}
	for _, name := range []string{"seg-v1.clsg", "seg-v2-deflate.clsg"} {
		f.Add(formatFixture(f, name))
	}
	f.Add([]byte("CLSG"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodeSegmentRows(data)
		if err != nil {
			if !errors.Is(err, errSegmentCorrupt) {
				t.Fatalf("decode error does not wrap ErrSegmentCorrupt: %v", err)
			}
			return
		}
		blob, _, err := encodeSegment(rows)
		if err != nil {
			t.Fatalf("decoded rows failed to re-encode: %v", err)
		}
		again, err := decodeSegmentRows(blob)
		if err != nil {
			t.Fatalf("re-encoded segment failed to decode: %v", err)
		}
		if !reflect.DeepEqual(rows, again) {
			t.Fatal("decode∘encode is not a fixpoint")
		}
	})
}
