package datastore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"campuslab/internal/faults"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// aggressiveTier returns a policy that seals early and often, so even the
// small test scenarios exercise multiple seal generations and segments.
func aggressiveTier(dir string) TierPolicy {
	return TierPolicy{
		Dir:            dir,
		HotPackets:     512,
		MinSealPackets: 64,
		SegmentPackets: 256,
	}
}

// tierFrames is equivFrames cut to a size that keeps the tier matrix
// (shards × workers × policy, with per-query cold decompression) fast
// enough for the -race gate while still spanning many segments.
func tierFrames(t *testing.T) []traffic.Frame {
	t.Helper()
	frames := equivFrames(t)
	if len(frames) > 6000 {
		frames = frames[:6000]
	}
	return frames
}

// ingestTiered builds a store with the given shard count and tier policy,
// feeding the frames through AddBatch in uneven chunks so the automatic
// seal trigger fires mid-stream.
func ingestTiered(t *testing.T, shards, workers int, pol TierPolicy) *Store {
	t.Helper()
	return ingestTieredOn(t, faults.OS, shards, workers, pol)
}

// ingestTieredOn is ingestTiered with the cold tier on fsys.
func ingestTieredOn(t *testing.T, fsys faults.FS, shards, workers int, pol TierPolicy) *Store {
	t.Helper()
	frames := tierFrames(t)
	s := NewSharded(shards)
	s.fsys = fsys
	if pol.Dir != "" {
		if err := s.EnableTiering(pol); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < len(frames); {
		hi := lo + 400 + lo%333
		if hi > len(frames) {
			hi = len(frames)
		}
		if _, err := s.AddBatch(frames[lo:hi], workers); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	return s
}

// flushUndersized gives the compactor something to merge. Policy seals
// write only whole segments, so a store built by ingestTiered alone leaves
// CompactTier nothing; two explicit seals out of the at least cap/2
// (256) packets still hot append two or more adjacent undersized segments.
func flushUndersized(t *testing.T, s *Store) {
	t.Helper()
	for _, keep := range []uint64{128, 64} {
		if _, err := s.sealHot(keep); err != nil {
			t.Fatal(err)
		}
	}
}

// tierView is what tiering must leave unchanged: the store's surface, and
// beside it every Scan row's parsed Summary, which the surface leaves to
// the row's bytes and a cold row re-derives on decode.
type tierView struct {
	surface   storeSurface
	summaries []packet.Summary
}

func tierViewOf(s *Store) tierView {
	v := tierView{surface: surfaceOf(s)}
	s.Scan(func(sp *StoredPacket) bool {
		v.summaries = append(v.summaries, sp.Summary)
		return true
	})
	return v
}

// diff returns "" when got has this view, or names its first difference.
func (want tierView) diff(got *Store) string {
	if d := want.surface.diff(got); d != "" {
		return d
	}
	i, d := 0, ""
	got.Scan(func(sp *StoredPacket) bool {
		if sp.Summary != want.summaries[i] {
			d = fmt.Sprintf("Scan row %d (ID %d) Summary differs:\nwant %+v\ngot  %+v", i, sp.ID, want.summaries[i], sp.Summary)
			return false
		}
		i++
		return true
	})
	return d
}

// TestTieredStoreEquivalence is the tentpole property: with tiering off
// versus an aggressive seal-everything policy, every query surface must be
// byte-identical across shard and worker counts — including the planner
// path, the serial scan reference, and randomized filter expressions —
// and stay identical after compaction.
func TestTieredStoreEquivalence(t *testing.T) {
	ref := ingestTiered(t, 4, 4, TierPolicy{})
	want, rows := tierViewOf(ref), ref.packetsBetween(0, -1)
	if len(rows) == 0 || len(ref.Flows()) == 0 {
		t.Fatal("reference store is empty")
	}
	total, span := len(rows), rows[len(rows)-1].TS
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			s := ingestTieredOn(t, newMemFS(int64(shards)), shards, workers, aggressiveTier("/tier"))
			s.SetQueryWorkers(workers)
			ts := s.TierStats()
			if ts.Segments == 0 || ts.ColdPackets == 0 {
				t.Fatalf("%s: no automatic seal happened (stats %+v)", name, ts)
			}
			if d := want.diff(s); d != "" {
				t.Fatalf("%s: %s", name, d)
			}

			// Randomized filters: tiered planner results must match both the
			// untiered store and the tiered store's own scan reference.
			r := rand.New(rand.NewSource(int64(100*shards + workers)))
			nq := 40
			if testing.Short() {
				nq = 10
			}
			for i := 0; i < nq; i++ {
				expr := genQueryExpr(r, 3)
				f, err := ParseFilter(expr)
				if err != nil {
					t.Fatalf("generated expression rejected: %q: %v", expr, err)
				}
				limit := 0
				if r.Intn(3) == 0 {
					limit = 1 + r.Intn(20)
				}
				wantSel := ref.Select(f, limit)
				wantN := ref.Count(f)
				got := s.Select(f, limit)
				gotN := s.Count(f)
				if !reflect.DeepEqual(wantSel, got) {
					t.Fatalf("%s: Select(%q, %d) diverged from untiered: %d vs %d rows",
						name, expr, limit, len(wantSel), len(got))
				}
				if wantN != gotN {
					t.Fatalf("%s: Count(%q) diverged from untiered: %d vs %d", name, expr, wantN, gotN)
				}
				s.SetScanQuery(true)
				scanSel := s.Select(f, limit)
				scanN := s.Count(f)
				s.SetScanQuery(false)
				if !reflect.DeepEqual(wantSel, scanSel) || wantN != scanN {
					t.Fatalf("%s: tiered scan reference diverged on %q", name, expr)
				}
			}

			// Time-window surface across the seal boundary.
			for _, w := range [][2]time.Duration{{0, span / 3}, {span / 3, 2 * span / 3}, {span / 2, -1}} {
				a := ref.packetsBetween(w[0], w[1])
				b := s.packetsBetween(w[0], w[1])
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: PacketsBetween(%v,%v) differs: %d vs %d rows", name, w[0], w[1], len(a), len(b))
				}
			}

			// Point lookups must resolve cold IDs.
			for id := PacketID(0); id < PacketID(total); id += PacketID(total / 50) {
				wp, wok := ref.packetByID(id)
				gp, gok := s.packetByID(id)
				if wok != gok || !reflect.DeepEqual(wp, gp) {
					t.Fatalf("%s: Packet(%d) differs (ok %v vs %v)", name, id, wok, gok)
				}
			}

			// Compaction must not change any observable result.
			if _, err := s.CompactTier(); err != nil {
				t.Fatalf("%s: CompactTier: %v", name, err)
			}
			if d := want.diff(s); d != "" {
				t.Fatalf("%s post-compact: %s", name, d)
			}

			// Policy seals leave nothing undersized, so the pass above may
			// have been a no-op; this one has real input.
			flushUndersized(t, s)
			if n, err := s.CompactTier(); err != nil || n == 0 {
				t.Fatalf("%s: CompactTier after flush merged %d segments, err %v", name, n, err)
			}
			if d := want.diff(s); d != "" {
				t.Fatalf("%s post-flush-compact: %s", name, d)
			}
		}
	}
}

// TestTierSealStats: manual sealing moves packets cold, Stats separates
// the tiers, and totalBytes/Span keep covering both.
func TestTierSealStats(t *testing.T) {
	s := ingestTiered(t, 4, 1, TierPolicy{})
	pre := s.Stats()
	dir := t.TempDir()
	if err := s.EnableTiering(TierPolicy{Dir: dir, SegmentPackets: 256}); err != nil {
		t.Fatal(err)
	}
	moved, err := s.sealHot(100)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("SealHot moved nothing")
	}
	st := s.Stats()
	if st.Packets+st.ColdPackets != pre.Packets {
		t.Fatalf("tier split lost packets: hot %d + cold %d != %d", st.Packets, st.ColdPackets, pre.Packets)
	}
	if st.ColdPackets != uint64(moved) || st.Segments == 0 || st.ColdBytes == 0 {
		t.Fatalf("cold stats inconsistent: %+v (moved %d)", st, moved)
	}
	if st.DataBytes >= pre.DataBytes {
		t.Fatal("hot data bytes did not shrink after seal")
	}
	if st.totalBytes() != st.DataBytes+st.IndexBytes+st.ColdBytes {
		t.Fatal("TotalBytes must include the cold tier")
	}
	if st.Span != pre.Span || st.Flows != pre.Flows {
		t.Fatalf("span/flows changed across seal: %+v vs %+v", st, pre)
	}
	ts := s.TierStats()
	if !ts.Enabled || ts.Seals != 1 || ts.SealedPackets != uint64(moved) || ts.SealedBelow == 0 {
		t.Fatalf("TierStats inconsistent: %+v", ts)
	}
	// Cold files really are compressed columns: on-disk cold bytes must be
	// well under the raw packet bytes they replaced.
	rawCold := pre.DataBytes - st.DataBytes
	if st.ColdBytes >= rawCold {
		t.Fatalf("cold segments (%d B) not smaller than raw packets (%d B)", st.ColdBytes, rawCold)
	}
}

// TestEvictBeforeSealAware: on a tiered store, EvictBefore demotes instead
// of destroying — the evicted window stays fully queryable from cold
// segments, while the hot tier shrinks.
func TestEvictBeforeSealAware(t *testing.T) {
	s := ingestTiered(t, 4, 1, TierPolicy{})
	want := tierViewOf(s)
	if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), SegmentPackets: 512}); err != nil {
		t.Fatal(err)
	}
	rows := s.packetsBetween(0, -1)
	cut := rows[len(rows)/2].TS
	evicted := s.EvictBefore(cut)
	if evicted == 0 {
		t.Fatal("EvictBefore sealed nothing")
	}
	st := s.Stats()
	if st.ColdPackets == 0 {
		t.Fatal("seal-aware eviction left the cold tier empty")
	}
	if d := want.diff(s); d != "" {
		t.Fatalf("evict-before: %s", d)
	}
}

// TestRetainColdDropsHistory: retention deletes whole cold segments (and
// the flows that ended inside them, with their index charge) once they age
// out.
func TestRetainColdDropsHistory(t *testing.T) {
	s := ingestTiered(t, 4, 1, aggressiveTier(t.TempDir()))
	if _, err := s.sealHot(0); err != nil { // everything cold
		t.Fatal(err)
	}
	pre, preStats := s.TierStats(), s.Stats()
	if pre.Segments < 2 {
		t.Fatalf("need several segments, got %d", pre.Segments)
	}
	horizon := time.Duration(s.lastTS.Load()) / 2
	dropped, err := s.RetainCold(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("retention dropped nothing")
	}
	postStats := s.Stats()
	lost := preStats.Flows - postStats.Flows
	if got := preStats.IndexBytes - postStats.IndexBytes; lost == 0 || got != flowIndexBytes*lost {
		t.Fatalf("retention dropped %d flows and released %d index bytes, want %d per flow", lost, got, flowIndexBytes)
	}
	post := s.TierStats()
	if post.Segments != pre.Segments-dropped || post.ColdPackets >= pre.ColdPackets {
		t.Fatalf("retention accounting off: pre %+v post %+v dropped %d", pre, post, dropped)
	}
	for _, fm := range s.Flows() {
		if fm.Last < horizon {
			t.Fatalf("flow %v ended before the horizon but survived retention", fm.Key)
		}
	}
	// Remaining data still queryable.
	all, err := ParseFilter("ts >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Count(all); uint64(n) != s.Stats().Packets+post.ColdPackets {
		t.Fatalf("Count after retention: %d", n)
	}
	// Files really left the disk.
	ents, err := os.ReadDir(filepath.Dir(filepath.Join(s.tier.Load().dir, tierManifestName)))
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == segSuffix {
			segFiles++
		}
	}
	if segFiles != post.Segments {
		t.Fatalf("%d segment files on disk, registry has %d", segFiles, post.Segments)
	}
}

// TestRetainedFlowsMatchUntieredEviction: retention on a tiered store,
// carried through a checkpoint and a recovery, leaves the same flows as
// eviction at the same horizon on an untiered store, and every packet a
// surviving flow's 5-tuple selects resolves by ID.
func TestRetainedFlowsMatchUntieredEviction(t *testing.T) {
	frames := tierFrames(t)
	const dir = "/data"
	mfs := newMemFS(1)
	cfg := DurableConfig{Dir: dir, Fsync: fsyncNone, Shards: 4, Tier: aggressiveTier(dir + "/tier")}
	st, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(frames); lo += 500 {
		if _, err := st.AddBatch(frames[lo:min(lo+500, len(frames))], 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.sealHot(0); err != nil {
		t.Fatal(err)
	}
	horizon := time.Duration(st.lastTS.Load()) / 2
	if n, err := st.RetainCold(horizon); err != nil || n == 0 {
		t.Fatalf("RetainCold dropped %d segments, err %v", n, err)
	}
	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()

	ref := NewSharded(4)
	ref.AddBatch(frames, 2)
	if ref.EvictBefore(horizon) == 0 {
		t.Fatal("EvictBefore dropped nothing")
	}
	want, got := ref.Flows(), rec.Flows()
	if len(want) == 0 {
		t.Fatal("no flow outlived the horizon")
	}
	if !reflect.DeepEqual(want, got) {
		for i := range min(len(want), len(got)) {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("flow %d of %d differs after retention and recovery:\nuntiered %+v\ntiered   %+v", i, len(want), want[i], got[i])
			}
		}
		t.Fatalf("%d flows after retention and recovery, %d after eviction", len(got), len(want))
	}
	for _, fm := range got {
		for _, sp := range rec.Select(flowFilter(t, fm.Key), 0) {
			if p, ok := rec.packetByID(sp.ID); !ok || p.ID != sp.ID {
				t.Fatalf("flow %v: packet %d does not resolve", fm.Key, sp.ID)
			}
		}
	}
}

// TestCompactTierMergesSmallSegments: repeated small seals leave confetti;
// compaction merges them toward the size target without changing results.
func TestCompactTierMergesSmallSegments(t *testing.T) {
	s := ingestTiered(t, 4, 1, TierPolicy{})
	want := tierViewOf(s)
	if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), SegmentPackets: 1024, MinSealPackets: 1}); err != nil {
		t.Fatal(err)
	}
	// Seal in thin slices: each sealHot call moves ~total/8 packets.
	total := s.Stats().Packets
	for keep := total * 7 / 8; ; keep -= total / 8 {
		if _, err := s.sealHot(keep); err != nil {
			t.Fatal(err)
		}
		if keep == 0 {
			break
		}
		if keep < total/8 {
			keep = total / 8
		}
	}
	pre := s.TierStats()
	if pre.Segments < 3 {
		t.Fatalf("expected confetti segments, got %d", pre.Segments)
	}
	replaced, err := s.CompactTier()
	if err != nil {
		t.Fatal(err)
	}
	post := s.TierStats()
	if replaced == 0 || post.Segments >= pre.Segments || post.Compactions == 0 {
		t.Fatalf("compaction did not merge: pre %d segs, post %d, replaced %d", pre.Segments, post.Segments, replaced)
	}
	if post.ColdPackets != pre.ColdPackets {
		t.Fatalf("compaction changed cold packet count: %d -> %d", pre.ColdPackets, post.ColdPackets)
	}
	if d := want.diff(s); d != "" {
		t.Fatalf("post-compact: %s", d)
	}
}

// TestTieredDurableRecovery: a durable store with tiering survives a clean
// close/recover cycle — snapshot, WAL replay, segment re-attach — with
// every surface identical, including after a reshard.
func TestTieredDurableRecovery(t *testing.T) {
	frames := tierFrames(t)
	dir := t.TempDir()
	cfg := DurableConfig{
		Dir: dir, Fsync: FsyncAlways, Shards: 4,
		Tier: aggressiveTier(filepath.Join(dir, "tier")),
	}
	st, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(frames) / 2
	for lo := 0; lo < mid; lo += 500 {
		hi := lo + 500
		if hi > mid {
			hi = mid
		}
		if _, err := st.AddBatch(frames[lo:hi], 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CheckpointDir(dir); err != nil { // snapshot under a live tier
		t.Fatal(err)
	}
	for lo := mid; lo < len(frames); lo += 500 {
		hi := lo + 500
		if hi > len(frames) {
			hi = len(frames)
		}
		if _, err := st.AddBatch(frames[lo:hi], 2); err != nil {
			t.Fatal(err)
		}
	}
	if st.TierStats().Segments == 0 {
		t.Fatal("no segments before crash point")
	}
	want := tierViewOf(st)
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	rec, rs, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()
	if rs.SnapshotPackets == 0 || rs.WALPackets == 0 {
		t.Fatalf("recovery should combine snapshot and WAL: %+v", rs)
	}
	if d := want.diff(rec); d != "" {
		t.Fatalf("recovered: %s", d)
	}

	// Recover once more at a different shard count: reshard must preserve
	// the IDs cold segments reference.
	rec2, _, err := Recover(DurableConfig{
		Dir: dir, Fsync: FsyncAlways, Shards: 8,
		Tier: cfg.Tier,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.CloseWAL()
	if d := want.diff(rec2); d != "" {
		t.Fatalf("recovered-resharded: %s", d)
	}
}

// TestTierCorruptSegmentDegradesLoudly: bit rot in a segment file must
// surface on TierStats.Err and the corrupt counter — queries degrade to
// the surviving data instead of failing or panicking.
func TestTierCorruptSegmentDegradesLoudly(t *testing.T) {
	dir := t.TempDir()
	s := ingestTiered(t, 4, 1, TierPolicy{})
	if err := s.EnableTiering(TierPolicy{Dir: dir, SegmentPackets: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.sealHot(100); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	all, err := ParseFilter("ts >= 0")
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Count(all)
	ts := s.TierStats()
	if ts.Err == nil || ts.CorruptSegments == 0 {
		t.Fatalf("corruption not surfaced: %+v", ts)
	}
	if !errors.Is(ts.Err, errSegmentCorrupt) {
		t.Fatalf("sticky error should wrap ErrSegmentCorrupt, got %v", ts.Err)
	}
}

// TestPolicySealsWholeSegments: the policy trigger seals whole multiples
// of SegmentPackets, so steady-state ingest under labd's shape (hot cap
// 500000, 32768-row segments, here scaled down 256×) writes
// only full segments and leaves the compactor nothing — while the cap
// still holds after every batch, including when it is smaller than one
// segment and the seal has to fall back to an undersized file.
func TestPolicySealsWholeSegments(t *testing.T) {
	frames := tierFrames(t)
	ingest := func(pol TierPolicy) *Store {
		t.Helper()
		s := NewSharded(4)
		if err := s.EnableTiering(pol); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(frames); {
			hi := min(lo+400+lo%333, len(frames))
			if _, err := s.AddBatch(frames[lo:hi], 2); err != nil {
				t.Fatal(err)
			}
			if hot := s.Stats().Packets; hot > pol.HotPackets {
				t.Fatalf("hot tier at %d packets after batch ending %d, cap %d", hot, hi, pol.HotPackets)
			}
			lo = hi
		}
		return s
	}

	pol := TierPolicy{Dir: t.TempDir(), HotPackets: 1953, SegmentPackets: 128, MinSealPackets: 1}
	s := ingest(pol)
	ts := s.TierStats()
	if ts.Seals < 3 || ts.Segments < 3 {
		t.Fatalf("expected several policy seals, got %+v", ts)
	}
	for _, sg := range s.tier.Load().segs {
		if sg.meta.count != pol.SegmentPackets {
			t.Fatalf("segment %s holds %d rows, want exactly %d", sg.name, sg.meta.count, pol.SegmentPackets)
		}
	}
	if n, err := s.CompactTier(); err != nil || n != 0 {
		t.Fatalf("CompactTier after steady-state seals = %d, %v; want nothing to merge", n, err)
	}
	if keep := pol.HotPackets / 2; s.Stats().Packets < keep {
		t.Fatalf("hot tier trimmed to %d, below the cap/2 floor %d", s.Stats().Packets, keep)
	}
	if got := s.Stats().Packets + ts.ColdPackets; got != uint64(len(frames)) {
		t.Fatalf("hot+cold = %d packets, ingested %d", got, len(frames))
	}

	// A cap below one segment: nothing whole is ever eligible, the seal
	// still runs (the cap check above held after every batch) and writes
	// what there is.
	small := ingest(TierPolicy{Dir: t.TempDir(), HotPackets: 1024, SegmentPackets: 4096, MinSealPackets: 1})
	if ts := small.TierStats(); ts.Seals == 0 || ts.ColdPackets == 0 {
		t.Fatalf("cap smaller than one segment never sealed: %+v", ts)
	}
}
