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
	frames := tierFrames(t)
	s := NewSharded(shards)
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

// tierPrint captures every query surface that must be invariant under
// tiering. Unlike storePrint it excludes Save bytes (tiered snapshots are
// v3 by design) and hot-only Stats.
type tierPrint struct {
	scan     []StoredPacket
	flows    []FlowMeta
	flowPkts [][]PacketID
	labels   map[int]int
	total    uint64
}

func tierFingerprint(t *testing.T, s *Store) tierPrint {
	t.Helper()
	var p tierPrint
	s.Scan(func(sp *StoredPacket) bool {
		p.scan = append(p.scan, *sp)
		return true
	})
	p.flows = s.Flows()
	for i := range p.flows {
		p.flowPkts = append(p.flowPkts, p.flows[i].PacketIDs())
	}
	p.labels = make(map[int]int)
	for k, v := range s.LabelCounts() {
		p.labels[int(k)] = v
	}
	st := s.Stats()
	p.total = st.Packets + st.ColdPackets
	return p
}

func compareTierPrints(t *testing.T, name string, want, got tierPrint) {
	t.Helper()
	if !reflect.DeepEqual(want.scan, got.scan) {
		n := len(want.scan)
		if len(got.scan) < n {
			n = len(got.scan)
		}
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(want.scan[i], got.scan[i]) {
				t.Fatalf("%s: Scan diverges at row %d:\nwant %+v\ngot  %+v", name, i, want.scan[i], got.scan[i])
			}
		}
		t.Fatalf("%s: Scan length differs: want %d got %d", name, len(want.scan), len(got.scan))
	}
	if !reflect.DeepEqual(want.flows, got.flows) {
		t.Errorf("%s: Flows differ (want %d, got %d)", name, len(want.flows), len(got.flows))
	}
	if !reflect.DeepEqual(want.flowPkts, got.flowPkts) {
		t.Errorf("%s: per-flow PacketIDs differ", name)
	}
	if !reflect.DeepEqual(want.labels, got.labels) {
		t.Errorf("%s: LabelCounts differ: want %v got %v", name, want.labels, got.labels)
	}
	if want.total != got.total {
		t.Errorf("%s: total packets differ: want %d got %d", name, want.total, got.total)
	}
}

// TestTieredStoreEquivalence is the tentpole property: with tiering off
// versus an aggressive seal-everything policy, every query surface must be
// byte-identical across shard and worker counts — including the planner
// path, the serial scan reference, and randomized filter expressions —
// and stay identical after compaction.
func TestTieredStoreEquivalence(t *testing.T) {
	ref := ingestTiered(t, 4, 4, TierPolicy{})
	want := tierFingerprint(t, ref)
	if want.total == 0 || len(want.flows) == 0 {
		t.Fatal("reference store is empty")
	}
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			s := ingestTiered(t, shards, workers, aggressiveTier(t.TempDir()))
			s.SetQueryWorkers(workers)
			ts := s.TierStats()
			if ts.Segments == 0 || ts.ColdPackets == 0 {
				t.Fatalf("%s: no automatic seal happened (stats %+v)", name, ts)
			}
			compareTierPrints(t, name, want, tierFingerprint(t, s))

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
			span := want.scan[len(want.scan)-1].TS
			for _, w := range [][2]time.Duration{{0, span / 3}, {span / 3, 2 * span / 3}, {span / 2, -1}} {
				a := ref.packetsBetween(w[0], w[1])
				b := s.packetsBetween(w[0], w[1])
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: PacketsBetween(%v,%v) differs: %d vs %d rows", name, w[0], w[1], len(a), len(b))
				}
			}

			// Point lookups must resolve cold IDs.
			for id := PacketID(0); id < PacketID(want.total); id += PacketID(want.total / 50) {
				wp, wok := ref.Packet(id)
				gp, gok := s.Packet(id)
				if wok != gok || !reflect.DeepEqual(wp, gp) {
					t.Fatalf("%s: Packet(%d) differs (ok %v vs %v)", name, id, wok, gok)
				}
			}

			// Compaction must not change any observable result.
			if _, err := s.CompactTier(); err != nil {
				t.Fatalf("%s: CompactTier: %v", name, err)
			}
			compareTierPrints(t, name+" post-compact", want, tierFingerprint(t, s))

			// Policy seals leave nothing undersized, so the pass above may
			// have been a no-op; this one has real input.
			flushUndersized(t, s)
			if n, err := s.CompactTier(); err != nil || n == 0 {
				t.Fatalf("%s: CompactTier after flush merged %d segments, err %v", name, n, err)
			}
			compareTierPrints(t, name+" post-flush-compact", want, tierFingerprint(t, s))
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
	want := tierFingerprint(t, s)
	if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), SegmentPackets: 512}); err != nil {
		t.Fatal(err)
	}
	cut := want.scan[len(want.scan)/2].TS
	evicted := s.EvictBefore(cut)
	if evicted == 0 {
		t.Fatal("EvictBefore sealed nothing")
	}
	st := s.Stats()
	if st.ColdPackets == 0 {
		t.Fatal("seal-aware eviction left the cold tier empty")
	}
	compareTierPrints(t, "evict-before", want, tierFingerprint(t, s))
}

// TestRetainColdDropsHistory: retention deletes whole cold segments (and
// the flows that ended inside them) once they age out.
func TestRetainColdDropsHistory(t *testing.T) {
	s := ingestTiered(t, 4, 1, aggressiveTier(t.TempDir()))
	if _, err := s.sealHot(0); err != nil { // everything cold
		t.Fatal(err)
	}
	pre := s.TierStats()
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

// TestCompactTierMergesSmallSegments: repeated small seals leave confetti;
// compaction merges them toward the size target without changing results.
func TestCompactTierMergesSmallSegments(t *testing.T) {
	s := ingestTiered(t, 4, 1, TierPolicy{})
	want := tierFingerprint(t, s)
	if err := s.EnableTiering(TierPolicy{Dir: t.TempDir(), SegmentPackets: 1024, MinSealPackets: 1}); err != nil {
		t.Fatal(err)
	}
	// Seal in thin slices: each sealHot call moves ~total/8 packets.
	total := want.total
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
	compareTierPrints(t, "post-compact", want, tierFingerprint(t, s))
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
	want := tierFingerprint(t, st)
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
	compareTierPrints(t, "recovered", want, tierFingerprint(t, rec))

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
	compareTierPrints(t, "recovered-resharded", want, tierFingerprint(t, rec2))
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
