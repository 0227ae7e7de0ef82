package datastore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"campuslab/internal/faults"
	"campuslab/internal/frame"
	"campuslab/internal/obs"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// The two write-side seams: a checkpoint recovers at any shard count
// through the one ingest funnel (Store.ingest), and every registry change
// goes through one commit (commitTier).

// TestLoadAtShardCountMatchesDefaultLoad: a checkpoint holds the same
// bytes at any shard count, and Recover rebuilds the same store from it and
// its WAL at any (shards, workers) — the pinned v7 checkpoint and a fresh
// tiered one whose flows straddle the seal each re-encode to their bytes
// and recover to the surface, the full Stats and five filter counts of
// the default-shard recovery.
func TestLoadAtShardCountMatchesDefaultLoad(t *testing.T) {
	fixture := t.TempDir()
	for name, b := range map[string][]byte{segName(1): formatFixture(t, segName(1)), snapName(1): formatFixture(t, "snapshot-v7-checkpoint.clds")} {
		if err := os.WriteFile(filepath.Join(fixture, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fresh := t.TempDir()
	tierPol := aggressiveTier(filepath.Join(fresh, "tier"))
	live, _, err := Recover(DurableConfig{Dir: fresh, Shards: 4, Workers: 2, Tier: tierPol})
	if err != nil {
		t.Fatal(err)
	}
	frames := tierFrames(t)
	for lo := 0; lo < len(frames); lo += 500 {
		if _, err := live.AddBatch(frames[lo:min(lo+500, len(frames))], 2); err != nil {
			t.Fatal(err)
		}
		if lo == 2000 {
			if err := live.CheckpointDir(fresh); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := live.CheckpointDir(fresh); err != nil {
		t.Fatal(err)
	}
	if ts := live.TierStats(); ts.Segments == 0 || live.Stats().Packets == 0 {
		t.Fatalf("fresh tiered store has %d segments, %d hot packets; want both", ts.Segments, live.Stats().Packets)
	}
	live.CloseWAL()

	type extras struct {
		stats  Stats
		counts [5]int
	}
	extrasOf := func(s *Store) (x extras) {
		x.stats = s.Stats()
		for i, expr := range []string{"udp", "proto == tcp", "dst.port == 53", "label == dns-amp", "ts >= 500ms && udp"} {
			n, err := s.CountExpr(expr)
			if err != nil {
				t.Fatalf("Count(%q): %v", expr, err)
			}
			x.counts[i] = n
		}
		return x
	}
	for _, c := range []struct {
		name, dir string
		tier      TierPolicy
	}{{"v7 fixture", fixture, TierPolicy{}}, {"tiered fresh", fresh, tierPol}} {
		snapPath, _, _, err := findSnapshot(faults.OS, c.dir)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		st, base, pos, err := load(bytes.NewReader(snap), 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var again bytes.Buffer
		unlock := st.rlockAll()
		err = st.encodeLocked(&again, base, pos)
		unlock()
		if err != nil || !bytes.Equal(again.Bytes(), snap) {
			t.Fatalf("%s: the default load does not re-encode to its input (%v)", c.name, err)
		}
		open := func(shards, workers int) *Store {
			t.Helper()
			st, _, err := Recover(DurableConfig{Dir: c.dir, Shards: shards, Workers: workers, Tier: c.tier})
			if err != nil {
				t.Fatalf("%s: Recover(shards=%d, workers=%d): %v", c.name, shards, workers, err)
			}
			if err := st.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			return st
		}
		ref := open(0, 0)
		want, wantX := surfaceOf(ref), extrasOf(ref)
		for _, shards := range []int{1, 4, 16} {
			for _, workers := range []int{1, 4} {
				st := open(shards, workers)
				if st.numShards() != shards {
					t.Fatalf("%s: Recover(shards=%d) built %d shards", c.name, shards, st.numShards())
				}
				if d := want.diff(st); d != "" {
					t.Errorf("%s: Recover(shards=%d, workers=%d) differs from the default recovery: %s", c.name, shards, workers, d)
				}
				if x := extrasOf(st); x != wantX {
					t.Errorf("%s: Recover(shards=%d, workers=%d): stats %+v vs %+v, counts %v vs %v",
						c.name, shards, workers, wantX.stats, x.stats, wantX.counts, x.counts)
				}
			}
		}
	}
}

// TestLoadChecksumAfterAppliedChunks: load applies each flow block as it
// is read, so damage in the last one is found with earlier blocks' flows
// already in the store being built. That store must not be returned.
func TestLoadChecksumAfterAppliedChunks(t *testing.T) {
	frames := make([]traffic.Frame, 2*loadChunk/flowSize+100)
	for i := range frames {
		frames[i] = traffic.Frame{TS: time.Duration(i) * time.Microsecond, Data: serializeFrame(t, []byte("flow"),
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{TTL: 64, Protocol: packet.IPProtocolUDP,
				SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2")},
			&packet.UDP{SrcPort: uint16(1024 + i), DstPort: 9000})}
	}
	src := NewSharded(2)
	if _, err := src.AddBatch(frames, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.save(&buf, []walSeg{{walPos: walPos{seq: 1}}}); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	blocks := 0
	for rest := snap[6:]; len(rest) > 0; blocks++ {
		var err error
		if _, _, rest, err = frame.Next(rest, loadChunk); err != nil {
			t.Fatal(err)
		}
	}
	if blocks < 4 {
		t.Fatalf("checkpoint holds %d flow blocks; the test needs more than two", blocks-1)
	}
	// The checkpoint's last byte is the last flow's last byte.
	snap[len(snap)-1] ^= 0x20
	for _, shards := range []int{0, 4} {
		st, _, _, err := load(bytes.NewReader(snap), shards)
		if !errors.Is(err, errBadSnapshot) || !errors.Is(err, frame.ErrCorrupt) || st != nil {
			t.Fatalf("load(shards=%d) of a checkpoint damaged in its last flow block = %v, %v; want nil, a checksum errBadSnapshot", shards, st, err)
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
	st.manifest, _ = tr.fsys.ReadFile(filepath.Join(tr.dir, tierManifestName))
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
	// A leg fails the call-th operation op in the tier directory.
	type leg struct {
		name string
		op   string
		call int
	}
	// Every seal and compaction below writes exactly one segment file, so
	// the manifest's rename is the op's second; retention writes none.
	segWrite := leg{"segment write", "write", 1}
	manifestRename := func(call int) leg { return leg{"manifest rename", "rename", call} }
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
				dir, mfs := "/data", newMemFS(1)
				tierDir := filepath.Join(dir, "tier")
				recoverAt := func(shards int) *Store {
					t.Helper()
					st, _, err := recoverOn(mfs, DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: shards, Tier: pol(tierDir)})
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

				mfs.failOp(lg.op, tierDir+"/", lg.call, syscall.EIO)
				done, err := op.trigger(t, s, twin, at)
				mfs.heal()
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
				if tmps := matchDir(mfs, tierDir, "*.tmp*"); len(tmps) != 0 {
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
				onDisk := matchDir(mfs, tierDir, "seg-*"+segSuffix)
				if len(onDisk) != re.TierStats().Segments {
					t.Fatalf("re-attach left %d segment files for %d registered segments", len(onDisk), re.TierStats().Segments)
				}
				compareToTwin(t, "re-attached after "+op.name, re, twin)
			})
		}
	}
}

// TestTierMaintenanceCountsFailures: the background compactor has no
// caller to hand an error to, so every failed pass is counted by op. A
// retention pass whose manifest rename fails moves the retain counter by
// exactly one, a compaction whose segment write fails moves the compact
// counter by exactly one, and the store answers every query throughout.
func TestTierMaintenanceCountsFailures(t *testing.T) {
	frames := tierFrames(t)
	pol := aggressiveTier("/tier")
	pol.Retain = (frames[len(frames)-1].TS - frames[0].TS) / 2
	fsys := newMemFS(1)
	s := ingestTieredOn(t, fsys, 1, 1, pol)
	tr := s.tier.Load()
	all := MustFilter("len > 0")
	pass := func(name, op string, wantCompact, wantRetain uint64) {
		t.Helper()
		c0, r0 := obsTierCompactErrs.Value(), obsTierRetainErrs.Value()
		fsys.failOp(op, "/tier", 1, syscall.EIO)
		s.maintainTier(tr)
		fsys.heal()
		if dc, dr := obsTierCompactErrs.Value()-c0, obsTierRetainErrs.Value()-r0; dc != wantCompact || dr != wantRetain {
			t.Fatalf("%s: compact/retain error counters moved by %d/%d, want %d/%d", name, dc, dr, wantCompact, wantRetain)
		}
		scanned := 0
		s.Scan(func(*StoredPacket) bool { scanned++; return true })
		if n := s.Count(all); n != scanned || n == 0 {
			t.Fatalf("%s: Count %d, Scan %d rows", name, n, scanned)
		}
	}

	// Sealed in whole segments, the store gives compaction nothing to
	// merge, so the pass's first rename is retention's manifest.
	segs := s.TierStats().Segments
	pass("failed retention", "rename", 0, 1)
	if got := s.TierStats().Segments; got != segs {
		t.Fatalf("a failed retention pass left %d segments of %d", got, segs)
	}
	// Undersized segments give it a merge, whose segment write fails;
	// retention, on a healthy disk again, then drops what it could not.
	flushUndersized(t, s)
	segs = s.TierStats().Segments
	pass("failed compaction", "write", 1, 0)
	if got := s.TierStats().Segments; got >= segs {
		t.Fatalf("retention after a failed compaction dropped nothing (%d segments of %d)", got, segs)
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
		tr := &tier{dir: dir, fsys: faults.OS, nextSeq: 1}
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

// gauge reads an unlabelled gauge of the default registry as /metrics
// shows it.
func gauge(t *testing.T, name string) float64 {
	t.Helper()
	series := obs.Default.SeriesByName(name)
	if len(series) != 1 {
		t.Fatalf("%s: %d series, want 1", name, len(series))
	}
	return series[0].Value
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
			gPkts, gBytes, gSegs := gauge(t, "campuslab_tier_cold_packets"), gauge(t, "campuslab_tier_cold_bytes"), gauge(t, "campuslab_tier_segments")
			if gPkts != float64(pkts) || gBytes != float64(bytesReg) || gSegs != float64(ts.Segments) {
				t.Fatalf("seed %d after %s: gauges %v packets / %v bytes / %v segments, registry %d / %d / %d", seed, step,
					gPkts, gBytes, gSegs, pkts, bytesReg, ts.Segments)
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
