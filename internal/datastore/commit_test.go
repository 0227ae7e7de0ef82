package datastore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"campuslab/internal/faults"
	"campuslab/internal/frame"
	"campuslab/internal/traffic"
)

// The two write-side seams: a snapshot loads at any shard count through
// the batch path (load), and every registry change goes through one commit
// (commitTier).

// loadPrint is what a load at some (shards, workers) must reproduce: every
// surface fingerprintStore captures (scan order, flows with their packet
// IDs, the re-encoded snapshot), the full Stats and five filter counts.
type loadPrint struct {
	storePrint
	stats  Stats
	counts [5]int
}

func loadFingerprint(t *testing.T, s *Store) loadPrint {
	t.Helper()
	p := loadPrint{storePrint: fingerprintStore(t, s), stats: s.Stats()}
	for i, expr := range []string{"udp", "proto == tcp", "dst.port == 53", "label == dns-amp", "ts >= 500ms && udp"} {
		n, err := s.CountExpr(expr)
		if err != nil {
			t.Fatalf("Count(%q): %v", expr, err)
		}
		p.counts[i] = n
	}
	return p
}

// TestLoadAtShardCountMatchesDefaultLoad: a snapshot holds the same bytes
// at any shard count, and load rebuilds the same store from them at any
// (shards, workers) — the pinned untiered and tiered fixtures and a fresh
// tiered snapshot whose flows straddle the seal each re-encode to their
// input bytes and answer like the default-shard Load.
func TestLoadAtShardCountMatchesDefaultLoad(t *testing.T) {
	live := ingestTiered(t, 4, 2, aggressiveTier(t.TempDir()))
	if ts := live.TierStats(); ts.Segments == 0 || live.Stats().Packets == 0 {
		t.Fatalf("fresh tiered store has %d segments, %d hot packets; want both", ts.Segments, live.Stats().Packets)
	}
	cases := []struct {
		name    string
		snap    []byte
		tierDir string // attached after the load, like Recover; "" when untiered
	}{
		{"untiered fixture", formatFixture(t, "snapshot-v4-untiered.clds"), ""},
		{"tiered fixture", formatFixture(t, "snapshot-v4-tiered.clds"), fixtureTierDir(t)},
		{"tiered fresh", storeBytes(t, live), live.tier.Load().dir},
	}
	for _, c := range cases {
		open := func(shards, workers int) *Store {
			t.Helper()
			st, err := load(bytes.NewReader(c.snap), shards, workers)
			if err != nil {
				t.Fatalf("%s: load(shards=%d, workers=%d): %v", c.name, shards, workers, err)
			}
			if c.tierDir != "" {
				if err := st.EnableTiering(TierPolicy{Dir: c.tierDir}); err != nil {
					t.Fatal(err)
				}
			}
			return st
		}
		want := loadFingerprint(t, open(0, 0))
		if !bytes.Equal(want.saveBytes, c.snap) {
			t.Fatalf("%s: the default load does not re-encode to its input", c.name)
		}
		for _, shards := range []int{1, 4, 16} {
			for _, workers := range []int{1, 4} {
				st := open(shards, workers)
				if st.numShards() != shards {
					t.Fatalf("%s: load(shards=%d) built %d shards", c.name, shards, st.numShards())
				}
				got := loadFingerprint(t, st)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: load(shards=%d, workers=%d) differs from the default load (saved bytes equal: %v, stats %+v vs %+v, counts %v vs %v)",
						c.name, shards, workers, bytes.Equal(want.saveBytes, got.saveBytes), want.stats, got.stats, want.counts, got.counts)
				}
			}
		}
	}
}

// TestLoadChecksumAfterAppliedChunks: load applies each packet block as it
// is read, so damage in the last one is found with earlier blocks already
// in the store being built. That store must not be returned.
func TestLoadChecksumAfterAppliedChunks(t *testing.T) {
	src := NewSharded(2)
	if _, err := src.AddBatch(equivFrames(t), 2); err != nil {
		t.Fatal(err)
	}
	snap := storeBytes(t, src)
	ends := packetBlockEnds(t, snap)
	if len(ends) < 3 {
		t.Fatalf("snapshot holds %d packet blocks; the test needs more than two", len(ends))
	}
	// The last packet block's last byte is the last packet's last data byte.
	snap[ends[len(ends)-1]-1] ^= 0x20
	for _, shards := range []int{0, 4} {
		st, err := load(bytes.NewReader(snap), shards, 2)
		if !errors.Is(err, ErrBadSnapshot) || !errors.Is(err, frame.ErrCorrupt) || st != nil {
			t.Fatalf("load(shards=%d) of a snapshot damaged in its last packet block = %v, %v; want nil, a checksum ErrBadSnapshot", shards, st, err)
		}
	}
}

// tierDirState is everything a failed tier write must leave alone.
type tierDirState struct {
	segs        []string
	sealedBelow PacketID
	manifest    []byte
	hot         uint64
}

func tierState(t *testing.T, s *Store) tierDirState {
	t.Helper()
	tr := s.tier.Load()
	var st tierDirState
	for _, sg := range tr.segs {
		st.segs = append(st.segs, sg.name)
	}
	st.sealedBelow = PacketID(tr.sealedBelow.Load())
	st.manifest, _ = os.ReadFile(filepath.Join(tr.dir, tierManifestName))
	st.hot = s.Stats().Packets
	return st
}

// TestTierWriteFailureChangesNothing: a seal, a compaction or a retention
// pass whose segment write or manifest rename fails leaves the registry,
// the watermark, the manifest and the hot rows exactly as they were, acks
// the batch that triggered it, and says so on TierStats.Err and the write
// failure counter — not as a corrupt segment. With the disk healthy again
// the same trigger succeeds, and a re-attach sweeps what the failure
// orphaned.
func TestTierWriteFailureChangesNothing(t *testing.T) {
	frames := tierFrames(t)
	pol := func(dir string) TierPolicy {
		return TierPolicy{Dir: dir, HotPackets: 512, MinSealPackets: 64, SegmentPackets: 256}
	}
	type leg struct {
		name string
		inj  func() faults.Injector
	}
	// Every seal and compaction below writes exactly one segment file, so
	// the manifest's rename is the op's second; retention writes none.
	segWrite := leg{"segment write", func() faults.Injector {
		return faults.NewSchedule().FailCalls(faults.OpStoreWrite, 1, 1, faults.KindPermanent)
	}}
	manifestRename := func(call uint64) leg {
		return leg{"manifest rename", func() faults.Injector {
			return faults.NewSchedule().FailCalls(faults.OpStoreRename, call, call, faults.KindPermanent)
		}}
	}
	ops := []struct {
		name string
		legs []leg
		// prepare brings the store to the brink of the operation; trigger
		// runs it and reports whether it went through.
		prepare func(t *testing.T, s *Store, twin *Store) int
		trigger func(t *testing.T, s *Store, twin *Store, at int) (done bool, err error)
	}{
		{
			name: "seal", legs: []leg{segWrite, manifestRename(2)},
			prepare: func(t *testing.T, s, twin *Store) int {
				addBoth(t, s, twin, frames[:500])
				if _, err := s.sealHot(450); err != nil { // so there is a manifest to leave alone
					t.Fatal(err)
				}
				return 500
			},
			// The policy seal rides on an ingest batch, which must ack
			// whatever the seal does. Every batch over the cap retries it.
			trigger: func(t *testing.T, s, twin *Store, at int) (bool, error) {
				before := s.TierStats().Seals
				addBoth(t, s, twin, frames[at:at+100])
				return s.TierStats().Seals > before, nil
			},
		},
		{
			name: "compact", legs: []leg{segWrite, manifestRename(2)},
			prepare: func(t *testing.T, s, twin *Store) int {
				addBoth(t, s, twin, frames[:500])
				for _, keep := range []uint64{400, 300} {
					if _, err := s.sealHot(keep); err != nil {
						t.Fatal(err)
					}
				}
				return 500
			},
			trigger: func(t *testing.T, s, _ *Store, _ int) (bool, error) {
				n, err := s.CompactTier()
				return n > 0, err
			},
		},
		{
			name: "retain", legs: []leg{manifestRename(1)},
			prepare: func(t *testing.T, s, twin *Store) int {
				addBoth(t, s, twin, frames[:500])
				if _, err := s.sealHot(400); err != nil {
					t.Fatal(err)
				}
				return 500
			},
			// The horizon sits past the one sealed segment and before every
			// hot row, so the twin's EvictBefore drops the same packets.
			trigger: func(t *testing.T, s, twin *Store, _ int) (bool, error) {
				horizon := s.tier.Load().segs[0].meta.maxTS + 1
				n, err := s.RetainCold(horizon)
				if n > 0 {
					twin.EvictBefore(horizon)
				}
				return n > 0, err
			},
		},
	}
	for _, op := range ops {
		for _, lg := range op.legs {
			t.Run(op.name+"/"+lg.name, func(t *testing.T) {
				dir := t.TempDir()
				tierDir := filepath.Join(dir, "tier")
				recoverAt := func(shards int) *Store {
					t.Helper()
					st, _, err := Recover(DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: shards, Tier: pol(tierDir)})
					if err != nil {
						t.Fatal(err)
					}
					return st
				}
				s, twin := recoverAt(4), NewSharded(4)
				at := op.prepare(t, s, twin)
				was := tierState(t, s)
				if op.name == "seal" {
					was.hot += 100 // the triggering batch is acked and stays hot
				}
				failsBefore := obsTierWriteFails.Value()

				s.setFaultInjector(lg.inj())
				done, err := op.trigger(t, s, twin, at)
				s.setFaultInjector(nil)
				if done {
					t.Fatalf("%s went through despite the injected %s failure", op.name, lg.name)
				}
				if op.name != "seal" && err == nil {
					t.Fatalf("%s swallowed the injected %s failure", op.name, lg.name)
				}
				if got := tierState(t, s); !reflect.DeepEqual(was, got) {
					t.Fatalf("failed %s changed the tier:\nwas %+v\ngot %+v", op.name, was, got)
				}
				ts := s.TierStats()
				if ts.Err == nil || ts.CorruptSegments != 0 || obsTierWriteFails.Value() != failsBefore+1 {
					t.Fatalf("failed %s: Err = %v, corrupt = %d, write failures +%d; want an error, 0, +1",
						op.name, ts.Err, ts.CorruptSegments, obsTierWriteFails.Value()-failsBefore)
				}
				if tmps, _ := filepath.Glob(filepath.Join(tierDir, "*.tmp*")); len(tmps) != 0 {
					t.Fatalf("failed %s left temp files: %v", op.name, tmps)
				}
				compareToTwin(t, "after the failed "+op.name, s, twin)

				// The disk is healthy again: the same trigger goes through.
				if op.name == "seal" {
					at += 100
				}
				if done, err := op.trigger(t, s, twin, at); !done || err != nil {
					t.Fatalf("%s after the fault cleared: done = %v, err = %v", op.name, done, err)
				}
				compareToTwin(t, "after the retried "+op.name, s, twin)

				// A re-attach sweeps the files the failure orphaned and
				// answers the same from the log and the manifest.
				if err := s.CloseWAL(); err != nil {
					t.Fatal(err)
				}
				re := recoverAt(2)
				defer re.CloseWAL()
				onDisk, _ := filepath.Glob(filepath.Join(tierDir, "seg-*"+segSuffix))
				if len(onDisk) != re.TierStats().Segments {
					t.Fatalf("re-attach left %d segment files for %d registered segments", len(onDisk), re.TierStats().Segments)
				}
				compareToTwin(t, "re-attached after "+op.name, re, twin)
			})
		}
	}
}

// addBoth acks one batch on the tiered store and its untiered twin.
func addBoth(t *testing.T, s, twin *Store, frames []traffic.Frame) {
	t.Helper()
	for _, st := range []*Store{s, twin} {
		if _, err := st.AddBatch(frames, 2); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
	}
}

// compareToTwin: the tiered store answers Select and Count like its
// untiered twin, row for row.
func compareToTwin(t *testing.T, when string, s, twin *Store) {
	t.Helper()
	for _, expr := range []string{"ip", "udp && dst.port == 53", "proto == tcp", "label == dns-amp"} {
		want, err := twin.SelectExpr(expr, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SelectExpr(expr, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.CountExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || n != len(want) {
			t.Fatalf("%s: %q selects %d rows and counts %d, the untiered twin has %d", when, expr, len(got), n, len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("%s: %q row %d is packet %d, the untiered twin has %d", when, expr, i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestEnableTieringRefusesForeignSegmentName: a manifest that passes its
// checksum but names a file tierSegName never produces is refused like any
// other invalid manifest, and the directory is left as found.
func TestEnableTieringRefusesForeignSegmentName(t *testing.T) {
	for _, name := range []string{"x.clsg", "seg-1.clsg", "seg-0000000000000000.clsg.bak"} {
		dir := t.TempDir()
		tr := &tier{dir: dir, nextSeq: 1}
		if err := tr.writeManifestLocked(40, []*tierSegment{{name: name}}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), formatFixture(t, "tier", tierSegName(0)), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirListing(t, dir)
		err := NewSharded(1).EnableTiering(TierPolicy{Dir: dir})
		if err == nil || !strings.Contains(err.Error(), "tier manifest") {
			t.Fatalf("manifest naming %q: EnableTiering = %v, want a tier manifest error", name, err)
		}
		if after := dirListing(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("refused attach changed the directory: %v -> %v", before, after)
		}
	}
}

func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(ents))
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi.Size()
	}
	return out
}

// TestCommitTierRecomputesTotals: after any sequence of seals, compactions
// and retention passes the cold totals are the sums over the registry —
// and over the segment files on disk — because commitTier recomputes them
// from the set it installs; the gauges say the same.
func TestCommitTierRecomputesTotals(t *testing.T) {
	frames := tierFrames(t)
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s := NewSharded(4)
		if err := s.EnableTiering(TierPolicy{Dir: dir, HotPackets: 600, MinSealPackets: 16, SegmentPackets: 128}); err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			tr := s.tier.Load()
			var pkts, bytesReg, bytesDisk uint64
			for _, sg := range tr.segs {
				pkts += uint64(sg.meta.count)
				bytesReg += sg.fileBytes
			}
			files, _ := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix))
			for _, f := range files {
				fi, err := os.Stat(f)
				if err != nil {
					t.Fatal(err)
				}
				bytesDisk += uint64(fi.Size())
			}
			ts := s.TierStats()
			if ts.ColdPackets != pkts || ts.ColdBytes != bytesReg || bytesReg != bytesDisk || len(files) != ts.Segments {
				t.Fatalf("seed %d after %s: cold totals %d packets / %d bytes, registry sums %d / %d, %d bytes in %d files for %d segments",
					seed, step, ts.ColdPackets, ts.ColdBytes, pkts, bytesReg, bytesDisk, len(files), ts.Segments)
			}
			if obsTierColdPackets.Value() != float64(pkts) || obsTierColdBytes.Value() != float64(bytesReg) ||
				obsTierSegments.Value() != float64(ts.Segments) {
				t.Fatalf("seed %d after %s: gauges %v packets / %v bytes / %v segments, registry %d / %d / %d", seed, step,
					obsTierColdPackets.Value(), obsTierColdBytes.Value(), obsTierSegments.Value(), pkts, bytesReg, ts.Segments)
			}
		}
		lo := 0
		for step := 0; step < 40 && lo < len(frames); step++ {
			var what string
			switch r.Intn(4) {
			case 0, 1: // ingest, with policy seals riding on it
				hi := min(len(frames), lo+50+r.Intn(400))
				if _, err := s.AddBatch(frames[lo:hi], 2); err != nil {
					t.Fatal(err)
				}
				lo, what = hi, "ingest"
			case 2: // an explicit seal leaves undersized files, then a compaction
				if _, err := s.sealHot(uint64(r.Intn(200))); err != nil {
					t.Fatal(err)
				}
				check("seal")
				if _, err := s.CompactTier(); err != nil {
					t.Fatal(err)
				}
				what = "compact"
			case 3:
				tr := s.tier.Load()
				if len(tr.segs) == 0 {
					continue
				}
				horizon := tr.segs[r.Intn(len(tr.segs))].meta.maxTS + 1
				if _, err := s.RetainCold(horizon); err != nil {
					t.Fatal(err)
				}
				what = "retain"
			}
			check(fmt.Sprintf("step %d (%s)", step, what))
		}
		if ts := s.TierStats(); ts.Seals == 0 || ts.Compactions == 0 || obsTierRetained.Value() == 0 {
			t.Fatalf("seed %d exercised %d seals, %d compactions: want every mutation", seed, ts.Seals, ts.Compactions)
		}
	}
}
