package datastore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"campuslab/internal/eventlog"
	"campuslab/internal/traffic"
)

// TestSurfaceCatchesCorruption: the comparison — Digest, and the diff the
// tests print — catches each of six ways a store can go wrong while every
// counter still looks plausible: two rows' labels swapped (the label counts
// stay equal), one byte of a frame, a flow's byte total, an event, a cold
// row rewritten in a segment whose checksums are all right, and a
// duplicate ID. Each is caught in the section it lives in.
func TestSurfaceCatchesCorruption(t *testing.T) {
	frames := equivFrames(t)
	evs := eventlog.NewGenerator(eventlog.GeneratorConfig{Rate: 5, Seed: 9}).Generate(2 * time.Second)
	hot := func() *Store {
		s := NewSharded(4)
		if _, err := s.AddBatch(frames, 2); err != nil {
			t.Fatal(err)
		}
		s.AddEvents(evs)
		return s
	}
	// cold attaches a fresh store to the segments of a tiered store sealed
	// whole, after corrupt has had its way with the first segment's rows.
	cold := func(corrupt func(rows []StoredPacket)) *Store {
		dir := t.TempDir()
		if _, err := ingestTiered(t, 4, 2, aggressiveTier(dir)).sealHot(0); err != nil {
			t.Fatal(err)
		}
		if corrupt != nil {
			path := filepath.Join(dir, tierSegName(0))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := decodeSegmentRows(b)
			if err != nil {
				t.Fatal(err)
			}
			corrupt(rows)
			if b, _, err = encodeSegment(rows); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := NewSharded(4)
		if err := s.EnableTiering(TierPolicy{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	hotWith := func(corrupt func(s *Store)) func() *Store {
		return func() *Store {
			s := hot()
			corrupt(s)
			return s
		}
	}
	for _, c := range []struct {
		name, section string
		build         func() *Store
		corrupted     func() *Store
	}{
		{"two rows' labels swapped", "row", hot, hotWith(func(s *Store) {
			p := s.shards[0].packets
			for i := range p {
				if p[i].Label != p[0].Label {
					p[0].Label, p[i].Label = p[i].Label, p[0].Label
					return
				}
			}
			t.Fatal("shard 0 holds one label only")
		})},
		{"one byte of a frame", "row", hot, hotWith(func(s *Store) {
			sp := &s.shards[1].packets[7]
			sp.Data = bytes.Clone(sp.Data)
			sp.Data[len(sp.Data)-1] ^= 1
		})},
		{"a flow's byte total", "flow", hot, hotWith(func(s *Store) {
			for _, fm := range s.shards[2].flows {
				fm.Bytes++
				return
			}
		})},
		{"an event", "event", hot, hotWith(func(s *Store) { s.events[3].Message += "!" })},
		{"a cold row", "row", func() *Store { return cold(nil) }, func() *Store {
			return cold(func(rows []StoredPacket) { rows[5].Label = (rows[5].Label + 1) % traffic.NumLabels })
		}},
		{"a duplicate ID", "row", hot, hotWith(func(s *Store) {
			p := s.shards[3].packets
			p[5].ID = p[4].ID
		})},
	} {
		ref := c.build()
		want, wantDigest := surfaceOf(ref), ref.Digest()
		if d := want.diff(c.build()); d != "" {
			t.Fatalf("%s: two builds differ before the corruption: %s", c.name, d)
		}
		s := c.corrupted()
		if d := want.diff(s); !strings.HasPrefix(d, c.section+" ") {
			t.Errorf("%s: diff = %q, want the first difference in section %q", c.name, d, c.section)
		}
		if s.Digest() == wantDigest {
			t.Errorf("%s: the digest did not change", c.name)
		}
	}
}
