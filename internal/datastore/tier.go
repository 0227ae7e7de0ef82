package datastore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"campuslab/internal/faults"
	"campuslab/internal/frame"
	"campuslab/internal/obs"
	"campuslab/internal/parallel"
)

// The cold tier: week-scale retention at bounded RSS. When a TierPolicy
// is enabled, the store seals its oldest packets — always a prefix of the
// global ID sequence — into immutable CLSG segments on disk (segment.go)
// and trims them from the hot shard slabs. Queries span both tiers
// transparently: cold segments decode into extra (TS, ID)-sorted runs
// that join the same k-way merge as the hot shards, so results are
// byte-identical to an untiered store at any policy.
//
// State machine and crash safety. All cold-tier mutation (seal, compact,
// retain) serializes on sealMu and follows one write protocol:
//
//	1. write new segment files (publishFile: temp + fsync + rename + dir
//	   sync)
//	2. write the manifest naming the new segment set and the seal
//	   watermark (same atomic protocol)
//	3. swap the in-RAM registry — and, for seal, trim the hot slabs —
//	   under tier.mu plus every shard lock
//	4. unlink replaced files (best effort; orphans are swept at attach)
//
// Each mutator decides the next segment set and does step 1; steps 2–4
// are commitTier, the one place the registry changes after attach. A
// failed publish in step 1 or 2 changes nothing in RAM and is recorded on
// TierStats.Err (noteFail).
//
// Encode-ahead (encodeAhead) moves a triggered seal's DEFLATE off the
// batch that trips it without moving a byte or a step: nothing reaches the
// disk before the trip, which still does step 1 itself.
//
// The manifest rename is the commit point. Killed before it, new files
// are unreferenced orphans and the packets are still covered by the hot
// tier's snapshot/WAL; killed after it, recovery rebuilds the hot store,
// then EnableTiering trims everything below the manifest's watermark —
// exactly the rows the segments hold. Acked ⇒ (slab ∨ WAL ∨ segment)
// holds through kill -9 at any instruction, with no duplicates, because
// the watermark trim is idempotent.
//
// Lock order: tier.mu strictly before shard locks, everywhere. Readers
// take tier.mu.RLock, decode the cold runs they need, then take the shard
// read locks; the seal swap takes tier.mu.Lock then every shard write
// lock. sealMu is above both and never held by readers.

// TierPolicy configures the cold tier. The zero value disables tiering.
type TierPolicy struct {
	// Dir is the segment directory (required; empty disables tiering).
	Dir string
	// HotPackets caps the hot tier's packet count; crossing it triggers a
	// seal that trims the hot tier down towards half the cap — sealing in
	// halves amortizes the per-seal cost instead of sealing a sliver per
	// batch. Half is a floor: the seal takes whole segments, so the hot
	// tier lands in [keep, keep+SegmentPackets), and at keep exactly only
	// when less than one segment's worth was eligible. 0 = no trigger.
	HotPackets uint64
	// MinSealPackets is the smallest prefix worth sealing (default 256);
	// below it the trigger is ignored to avoid confetti segments.
	MinSealPackets uint64
	// SegmentPackets is the target rows per segment file (default 32768).
	// A triggered seal writes files of exactly this many rows whenever at
	// least one is eligible, so steady-state ingest leaves the compactor
	// nothing to merge; explicit seals and the sub-target fallback write
	// balanced undersized files.
	SegmentPackets int
	// Retain bounds cold history: segments whose newest packet is older
	// than lastTS-Retain are deleted by the compactor (0 = keep forever).
	Retain time.Duration
	// CacheBytes bounds the cache serving cold queries: decoded data
	// blocks and the segments' resident directories share the one budget
	// (0 = disabled: every query decodes what it needs and discards it).
	// The cache is a segmented LRU: an entry is protected from eviction
	// once it is used a second time, so a one-pass scan larger than the
	// budget cycles through the rest and leaves reused blocks and
	// directories resident (tiercache.go).
	CacheBytes int64
}

func (p *TierPolicy) applyDefaults() {
	if p.MinSealPackets == 0 {
		p.MinSealPackets = 256
	}
	if p.SegmentPackets <= 0 {
		p.SegmentPackets = 32768
	}
}

// TierStats reports the cold tier for Stats consumers, labd gauges and
// E17: resident registry state plus lifetime counters (per store, so
// experiments can diff them without scraping the process registry).
type TierStats struct {
	Enabled         bool
	Segments        int
	ColdPackets     uint64
	ColdBytes       uint64 // segment file bytes on disk
	SealedBelow     PacketID
	Seals           uint64
	SealedPackets   uint64
	Compactions     uint64
	SegmentsScanned uint64 // cold segments decoded for queries
	SegmentsPruned  uint64 // cold segments skipped by TS bounds or zone map
	CorruptSegments uint64
	CacheHits       uint64 // decoded-block cache hits (0 when cache off)
	CacheMisses     uint64
	CacheBytes      int64 // decoded blocks resident in the cache
	CacheEntries    int
	DirHits         uint64 // segment directories served from the cache
	DirMisses       uint64 // directories a query had to build
	DirBytes        int64  // directories resident, charged to the same budget
	DirEntries      int
	Err             error // sticky: last segment decode/IO or tier write failure
}

// Tier-lifecycle metrics for /metrics.
var (
	obsTierSeals       = obs.Default.Counter("campuslab_tier_seals_total")
	obsTierSealedPkts  = obs.Default.Counter("campuslab_tier_sealed_packets_total")
	obsTierCompactions = obs.Default.Counter("campuslab_tier_compactions_total")
	obsTierRetained    = obs.Default.Counter("campuslab_tier_retained_segments_total")
	obsTierScanned     = obs.Default.Counter("campuslab_tier_segments_scanned_total")
	obsTierPruned      = obs.Default.Counter("campuslab_tier_segments_pruned_total")
	obsTierCorrupt     = obs.Default.Counter("campuslab_tier_corrupt_segments_total")
	obsTierWriteFails  = obs.Default.Counter("campuslab_tier_write_failures_total")
	// A failed pass of the background compactor, which has no caller to
	// return its error to, and a refused seal encode, inline or ahead.
	obsTierCompactErrs = obs.Default.Counter("campuslab_tier_maintenance_errors_total", "op", "compact")
	obsTierRetainErrs  = obs.Default.Counter("campuslab_tier_maintenance_errors_total", "op", "retain")
	obsTierSealErrs    = obs.Default.Counter("campuslab_tier_maintenance_errors_total", "op", "seal")
	// Segments encoded ahead: published by a trip, or dropped unpublished.
	obsTierPreUsed      = obs.Default.Counter("campuslab_tier_preencoded_segments_total", "outcome", "used")
	obsTierPreDiscarded = obs.Default.Counter("campuslab_tier_preencoded_segments_total", "outcome", "discarded")
	obsTierSegments     = obs.Default.Gauge("campuslab_tier_segments")
	obsTierColdPackets  = obs.Default.Gauge("campuslab_tier_cold_packets")
	obsTierColdBytes    = obs.Default.Gauge("campuslab_tier_cold_bytes")
	// Observed once per committed seal and once per compaction pass (one
	// merged run): merge, encode (a seal's trip only the chunks no blob
	// was encoded ahead for, plus any wait for one), fsyncs, manifest, swap.
	obsTierSealSeconds    = obs.Default.Histogram("campuslab_tier_seal_seconds", tierSecondsBounds)
	obsTierCompactSeconds = obs.Default.Histogram("campuslab_tier_compact_seconds", tierSecondsBounds)
)

var tierSecondsBounds = []float64{1e-3, 1e-2, 1e-1, 1, 10}

// tierSegment is one registered cold segment: its file name, the seq the
// name encodes (the cache key space), resident metadata and on-disk size.
type tierSegment struct {
	name      string
	seq       uint64
	meta      segMeta
	fileBytes uint64
}

// tier is the cold-tier registry attached to a store.
type tier struct {
	dir    string
	fsys   faults.FS
	policy TierPolicy
	// cache holds decoded blocks and directories under a scan-resistant
	// segmented LRU (nil when CacheBytes == 0).
	cache *tierCache

	// sealMu serializes every cold-tier mutation (seal/compact/retain).
	sealMu sync.Mutex
	// nextSeq numbers segment files monotonically; guarded by sealMu.
	nextSeq uint64

	// mu guards the registry below. Ordered strictly before shard locks.
	mu          sync.RWMutex
	segs        []*tierSegment // ascending minID (seal order)
	coldPackets uint64
	coldBytes   uint64
	// tsSorted records whether segs' TS bounds (minTS and maxTS both)
	// are non-decreasing in registry order — the common case, enabling
	// binary-searched window lookups. Recomputed on every registry swap;
	// false falls back to the linear scan (concurrent serial ingest can
	// interleave TS across seal generations in edge cases).
	tsSorted bool

	// sealedBelow mirrors the manifest watermark: every ID below it is
	// cold. Atomic so the per-batch seal trigger reads it lock-free.
	sealedBelow atomic.Uint64

	seals         atomic.Uint64
	sealedPackets atomic.Uint64
	compactions   atomic.Uint64
	scanned       atomic.Uint64
	pruned        atomic.Uint64
	corrupt       atomic.Uint64

	errMu   sync.Mutex
	lastErr error

	// preMu, a leaf lock, guards encodeAhead's list and whether its
	// goroutine is alive.
	preMu  sync.Mutex
	pre    []*preSeg // ascending lo
	preRun bool
}

// preSeg is the segment of every hot row with an ID in [lo,
// lo+SegmentPackets), encoded ahead. done closes once blob, meta and err
// are set; started is guarded by tier.preMu.
type preSeg struct {
	lo      PacketID
	done    chan struct{}
	blob    []byte
	meta    segMeta
	err     error
	started bool
	used    atomic.Bool
}

// noteErr records a segment failure: sticky for healthz, counted for
// /metrics. The failing segment is treated as empty for the query that
// hit it — queries degrade loudly (healthz goes degraded) rather than
// failing outright.
func (tr *tier) noteErr(err error) {
	tr.corrupt.Add(1)
	tr.noteFail(obsTierCorrupt, err)
}

// noteFail records a tier failure, sticky for healthz, and counts it on c:
// a refused publish (obsTierWriteFails: no segment is corrupt) or seal
// encode (obsTierSealErrs). Either leaves RAM as it was.
func (tr *tier) noteFail(c *obs.Counter, err error) {
	c.Inc()
	tr.errMu.Lock()
	tr.lastErr = err
	tr.errMu.Unlock()
}

// TierStats reports the cold tier (zero value when tiering is off).
func (s *Store) TierStats() TierStats {
	tr := s.tier.Load()
	if tr == nil {
		return TierStats{}
	}
	tr.mu.RLock()
	st := TierStats{
		Enabled:     true,
		Segments:    len(tr.segs),
		ColdPackets: tr.coldPackets,
		ColdBytes:   tr.coldBytes,
	}
	tr.mu.RUnlock()
	st.SealedBelow = PacketID(tr.sealedBelow.Load())
	st.Seals = tr.seals.Load()
	st.SealedPackets = tr.sealedPackets.Load()
	st.Compactions = tr.compactions.Load()
	st.SegmentsScanned = tr.scanned.Load()
	st.SegmentsPruned = tr.pruned.Load()
	st.CorruptSegments = tr.corrupt.Load()
	if tr.cache != nil {
		st.CacheHits = tr.cache.hits.Load()
		st.CacheMisses = tr.cache.misses.Load()
		st.CacheBytes, st.CacheEntries = tr.cache.size()
		st.DirHits = tr.cache.dirHits.Load()
		st.DirMisses = tr.cache.dirMisses.Load()
		st.DirBytes, st.DirEntries = tr.cache.dirSize()
	}
	tr.errMu.Lock()
	st.Err = tr.lastErr
	tr.errMu.Unlock()
	return st
}

const (
	tierManifestName = "tier.manifest"
	tierManifestMag  = "CLTM"
	tierManifestVer  = 1
	segSuffix        = ".clsg"
)

func tierSegName(seq uint64) string { return fmt.Sprintf("seg-%016x%s", seq, segSuffix) }

// publishFile writes name under the tier directory through
// faults.PublishFile, so the file is either absent or complete and
// durable. A failure is noted here, once for every tier write.
func (tr *tier) publishFile(name string, data []byte) error {
	err := faults.PublishFile(tr.fsys, filepath.Join(tr.dir, name), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		tr.noteFail(obsTierWriteFails, err)
	}
	return err
}

// writeManifestLocked commits a new segment set + watermark. Caller holds
// sealMu (segs may be the live slice — it is only mutated under sealMu).
func (tr *tier) writeManifestLocked(sealedBelow PacketID, segs []*tierSegment) error {
	le := binary.LittleEndian
	b := []byte(tierManifestMag)
	b = le.AppendUint16(b, tierManifestVer)
	b = le.AppendUint16(b, 0)
	b = le.AppendUint64(b, uint64(sealedBelow))
	b = le.AppendUint64(b, tr.nextSeq)
	b = le.AppendUint32(b, uint32(len(segs)))
	for _, sg := range segs {
		b = le.AppendUint16(b, uint16(len(sg.name)))
		b = append(b, sg.name...)
	}
	b = le.AppendUint32(b, frame.Sum(b))
	return tr.publishFile(tierManifestName, b)
}

// loadManifest reads the tier manifest; ok=false means a fresh tier (no
// manifest yet). A present-but-invalid manifest is an error — refusing to
// open beats silently dropping cold history — and so is one naming a file
// this package never writes: every name is a tierSegName.
func loadManifest(fsys faults.FS, dir string) (sealedBelow PacketID, nextSeq uint64, names []string, ok bool, err error) {
	b, rerr := fsys.ReadFile(filepath.Join(dir, tierManifestName))
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			return 0, 0, nil, false, nil
		}
		return 0, 0, nil, false, rerr
	}
	bad := func(f string, a ...any) error {
		return fmt.Errorf("datastore: tier manifest: %s", fmt.Sprintf(f, a...))
	}
	if len(b) < 4+2+2+8+8+4+4 || string(b[:4]) != tierManifestMag {
		return 0, 0, nil, false, bad("bad magic or truncated")
	}
	le := binary.LittleEndian
	body, sum := b[:len(b)-4], le.Uint32(b[len(b)-4:])
	if frame.Sum(body) != sum {
		return 0, 0, nil, false, bad("checksum mismatch")
	}
	if v := le.Uint16(b[4:]); v != tierManifestVer {
		return 0, 0, nil, false, bad("unsupported version %d", v)
	}
	sealedBelow = PacketID(le.Uint64(b[8:]))
	nextSeq = le.Uint64(b[16:])
	n := int(le.Uint32(b[24:]))
	off := 28
	for i := 0; i < n; i++ {
		if off+2 > len(body) {
			return 0, 0, nil, false, bad("truncated name table")
		}
		l := int(le.Uint16(b[off:]))
		off += 2
		if off+l > len(body) {
			return 0, 0, nil, false, bad("truncated name")
		}
		name := string(b[off : off+l])
		if _, err := parseTierSegName(name); err != nil {
			return 0, 0, nil, false, bad("names %q, which is not a segment file name", name)
		}
		names = append(names, name)
		off += l
	}
	if off != len(body) {
		return 0, 0, nil, false, bad("trailing bytes")
	}
	return sealedBelow, nextSeq, names, true, nil
}

// EnableTiering attaches a cold tier. On a directory with an existing
// manifest it reloads the segment registry, sweeps crash orphans, trims
// any hot rows below the seal watermark (recovery re-ingests them from
// the snapshot/WAL; the trim is the idempotent dedup step), and advances
// the ID/TS sequences past the cold maxima so new packets never collide
// with sealed history.
func (s *Store) EnableTiering(pol TierPolicy) error {
	if pol.Dir == "" {
		return errors.New("datastore: tier policy needs a directory")
	}
	if s.tier.Load() != nil {
		return errors.New("datastore: tiering already enabled")
	}
	pol.applyDefaults()
	if err := mkdirDurable(s.fsys, pol.Dir); err != nil {
		return err
	}
	removeStaleTemps(s.fsys, pol.Dir, tierManifestName)
	removeStaleTemps(s.fsys, pol.Dir, "seg-*"+segSuffix)
	sealedBelow, nextSeq, names, ok, err := loadManifest(s.fsys, pol.Dir)
	if err != nil {
		return err
	}
	tr := &tier{dir: pol.Dir, fsys: s.fsys, policy: pol, nextSeq: nextSeq}
	if pol.CacheBytes > 0 {
		tr.cache = newTierCache(pol.CacheBytes)
	}
	inManifest := make(map[string]bool, len(names))
	if ok {
		var maxID PacketID
		var maxTS time.Duration
		for _, name := range names {
			inManifest[name] = true
			b, err := s.fsys.ReadFile(filepath.Join(pol.Dir, name))
			if err != nil {
				return fmt.Errorf("datastore: tier segment %s: %w", name, err)
			}
			meta, err := openSegMeta(b)
			if err != nil {
				return fmt.Errorf("datastore: tier segment %s: %w", name, err)
			}
			seq, _ := parseTierSegName(name) // loadManifest checked the shape
			if seq >= tr.nextSeq {
				tr.nextSeq = seq + 1
			}
			tr.segs = append(tr.segs, &tierSegment{name: name, seq: seq, meta: meta, fileBytes: uint64(len(b))})
			if meta.maxID > maxID {
				maxID = meta.maxID
			}
			if meta.maxTS > maxTS {
				maxTS = meta.maxTS
			}
		}
		sort.Slice(tr.segs, func(i, j int) bool { return tr.segs[i].meta.minID < tr.segs[j].meta.minID })
		// The sealed history owns IDs up to maxID and time up to maxTS;
		// the fresh sequences must start past both.
		if next := uint64(maxID) + 1; len(tr.segs) > 0 && s.nextID.Load() < next {
			s.nextID.Store(next)
		}
		if len(tr.segs) > 0 && s.lastTS.Load() < int64(maxTS) {
			s.lastTS.Store(int64(maxTS))
		}
	}
	// Sweep orphan segment files (written by a seal/compact that died
	// before its manifest commit, or replaced by one that died before
	// unlinking its inputs).
	removeMatching(s.fsys, pol.Dir, "seg-*"+segSuffix, inManifest)
	// Idempotent dedup: recovery may have re-ingested rows that are
	// already sealed; drop them from the hot tier (occupancy follows).
	s.trimHotBelow(sealedBelow)
	tr.mu.Lock()
	tr.setRegistryLocked(sealedBelow, tr.segs)
	tr.mu.Unlock()
	s.tier.Store(tr)
	return nil
}

// setRegistryLocked installs a segment set and its seal watermark with
// everything derived from them: the cold totals (summed over the set, never
// adjusted), the binary-search eligibility flag and the gauges. Attach and
// commitTier are its only callers. Caller holds tr.mu (write).
func (tr *tier) setRegistryLocked(sealedBelow PacketID, segs []*tierSegment) {
	tr.segs = segs
	tr.sealedBelow.Store(uint64(sealedBelow))
	tr.coldPackets, tr.coldBytes = 0, 0
	for _, sg := range segs {
		tr.coldPackets += uint64(sg.meta.count)
		tr.coldBytes += sg.fileBytes
	}
	tr.recomputeTSSortedLocked()
	obsTierSegments.Set(float64(len(tr.segs)))
	obsTierColdPackets.Set(float64(tr.coldPackets))
	obsTierColdBytes.Set(float64(tr.coldBytes))
}

// recomputeTSSortedLocked refreshes the binary-search eligibility flag
// after any registry swap. Caller holds tr.mu (write).
func (tr *tier) recomputeTSSortedLocked() {
	tr.tsSorted = true
	for i := 1; i < len(tr.segs); i++ {
		prev, cur := &tr.segs[i-1].meta, &tr.segs[i].meta
		if cur.minTS < prev.minTS || cur.maxTS < prev.maxTS {
			tr.tsSorted = false
			return
		}
	}
}

// parseTierSegName inverts tierSegName and refuses any other shape.
func parseTierSegName(name string) (uint64, error) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "seg-%016x"+segSuffix, &seq); err != nil || tierSegName(seq) != name {
		return 0, fmt.Errorf("datastore: %q is not a segment file name", name)
	}
	return seq, nil
}

// trimBelowID drops the shard's slab prefix with ID < limit — the hot
// side of a seal. Unlike evictBefore, flow metadata survives intact:
// sealed packets are still queryable, so their flows' aggregates must
// keep counting them. Caller holds the shard write lock.
func (sh *shard) trimBelowID(limit PacketID) (int, uint64) {
	cut := sort.Search(len(sh.packets), func(i int) bool { return sh.packets[i].ID >= limit })
	if cut == 0 {
		return 0, 0
	}
	return cut, sh.dropRows(cut, limit)
}

// trimHotBelow drops every hot row with ID < limit and its occupancy,
// leaving the flows alone: rows recovery re-ingested that a seal or an
// eviction had already taken.
func (s *Store) trimHotBelow(limit PacketID) {
	var removed int
	var freed uint64
	for _, sh := range s.shards {
		sh.lock()
		n, b := sh.trimBelowID(limit)
		removed += n
		freed += b
		sh.mu.Unlock()
	}
	s.releaseHot(removed, freed)
}

// maybeSeal is the per-batch seal trigger: two atomic loads when the hot
// tier is under its cap, a background-priority TryLock when it is not;
// then encodeAhead. Outside ingestMu, so other writers go on, but the
// seal is on the ack path of the batch that trips it.
func (s *Store) maybeSeal() {
	tr := s.tier.Load()
	if tr == nil || tr.policy.HotPackets == 0 {
		return
	}
	defer s.encodeAhead(tr)
	pol := &tr.policy
	if s.totPackets.Load() <= pol.HotPackets {
		return
	}
	keep := pol.HotPackets / 2
	sealed, limit := tr.sealedBelow.Load(), s.nextID.Load()-keep
	if limit < sealed+pol.MinSealPackets {
		return
	}
	eligible := limit - sealed
	// Seal whole segments: the remainder stays hot (and WAL/snapshot
	// covered) until the next trigger, so every file is written at the
	// target size and compressed once. With less than one target eligible
	// the cap still has to hold, and the seal takes what there is.
	if target := uint64(pol.SegmentPackets); eligible >= target {
		eligible -= eligible % target
	}
	// The tripping batch is acked whatever the seal does; a failed one is
	// on TierStats.Err (noteFail) and the next batch over the cap retries.
	_, _ = s.sealTo(tr, PacketID(sealed+eligible), false)
}

// encodeAhead keeps tr.pre at the runs a trip cuts whole, [b+k·S,
// b+(k+1)·S) for b = sealedBelow and S = SegmentPackets, that are complete
// below nextID — at most ⌈HotPackets/S⌉+1. Rows never change once applied
// and encodeSegment is canonical, so each run's blob is the segment a trip
// would write. An entry off that list (sealed, or off the boundary after
// an explicit or sub-target seal) is dropped; new ones go to the encoder.
func (s *Store) encodeAhead(tr *tier) {
	S, hot := PacketID(tr.policy.SegmentPackets), PacketID(tr.policy.HotPackets)
	tr.preMu.Lock()
	defer tr.preMu.Unlock()
	base, next := PacketID(tr.sealedBelow.Load()), PacketID(s.nextID.Load())
	n := 0
	if next > base && hot > 0 { // no trigger, no trip to encode for
		n = int(min((next-base)/S, (hot+S-1)/S+1))
	}
	kept := tr.pre[:0]
	for _, p := range tr.pre {
		switch {
		case p.lo >= base && (p.lo-base)%S == 0 && int((p.lo-base)/S) < n:
			kept = append(kept, p)
		case p.used.Load():
		case p.started:
			obsTierPreDiscarded.Inc()
		}
	}
	clear(tr.pre[len(kept):])
	tr.pre = kept
	if len(kept) == n {
		return
	}
	want := make([]*preSeg, n)
	for _, p := range kept {
		want[(p.lo-base)/S] = p
	}
	for k := range want {
		if want[k] == nil {
			want[k] = &preSeg{lo: base + PacketID(k)*S, done: make(chan struct{})}
		}
	}
	tr.pre = want
	if !tr.preRun {
		tr.preRun = true
		go s.encodeLoop(tr)
	}
}

// encodeLoop is the encoder goroutine: it encodes tr.pre's unstarted
// entries oldest first on one DEFLATE worker and exits when none is left.
func (s *Store) encodeLoop(tr *tier) {
	for {
		tr.preMu.Lock()
		i := slices.IndexFunc(tr.pre, func(p *preSeg) bool { return !p.started })
		if i < 0 {
			tr.preRun = false
			tr.preMu.Unlock()
			return
		}
		p := tr.pre[i]
		p.started = true
		tr.preMu.Unlock()
		if rows := s.hotRun(p.lo, p.lo+PacketID(tr.policy.SegmentPackets)); len(rows) > 0 {
			if p.blob, p.meta, p.err = encodeSegmentOn(rows, 1); p.err != nil {
				tr.noteFail(obsTierSealErrs, p.err)
			}
		}
		close(p.done)
	}
}

// hotRun merges the hot rows with IDs in [lo, hi) under every shard's
// read lock (in shard order, like the seal's swap). The copy stays valid
// once the locks drop, whatever a seal trims: packet bytes never change.
func (s *Store) hotRun(lo, hi PacketID) []StoredPacket {
	runs := make([][]StoredPacket, 0, len(s.shards))
	for _, sh := range s.shards {
		sh.mu.RLock()
		i := sort.Search(len(sh.packets), func(i int) bool { return sh.packets[i].ID >= lo })
		j := sort.Search(len(sh.packets), func(i int) bool { return sh.packets[i].ID >= hi })
		runs = append(runs, sh.packets[i:j])
	}
	merged := mergeRuns(runs)
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
	return merged
}

// sealHot seals every hot packet except the newest keepRecent into cold
// segments, returning the number sealed. Manual counterpart of the
// automatic policy trigger (tests, shutdown flush, operators).
func (s *Store) sealHot(keepRecent uint64) (int, error) {
	tr := s.tier.Load()
	if tr == nil {
		return 0, nil
	}
	next := s.nextID.Load()
	if keepRecent >= next {
		return 0, nil
	}
	return s.sealTo(tr, PacketID(next-keepRecent), true)
}

// sealBefore seals all packets with TS < ts (plus any later-stamped
// packets whose IDs interleave below the covering watermark — harmless,
// they just go cold early). Returns the number of hot packets sealed.
func (s *Store) sealBefore(ts time.Duration) (int, error) {
	tr := s.tier.Load()
	if tr == nil {
		return 0, nil
	}
	var limit PacketID
	for _, sh := range s.shards {
		sh.mu.RLock()
		cut := sort.Search(len(sh.packets), func(i int) bool { return sh.packets[i].TS >= ts })
		if cut > 0 {
			if last := sh.packets[cut-1].ID + 1; last > limit {
				limit = last
			}
		}
		sh.mu.RUnlock()
	}
	if limit == 0 {
		return 0, nil
	}
	return s.sealTo(tr, limit, true)
}

// sealTo seals all packets with ID < limit. wait=false is the ingest-path
// trigger: if another seal or compaction is running, skip — the next
// batch will retry. Returns the number of hot packets moved cold.
func (s *Store) sealTo(tr *tier, limit PacketID, wait bool) (int, error) {
	if wait {
		tr.sealMu.Lock()
	} else if !tr.sealMu.TryLock() {
		return 0, nil
	}
	defer tr.sealMu.Unlock()
	if uint64(limit) <= tr.sealedBelow.Load() {
		return 0, nil
	}
	start := time.Now()
	merged := s.hotRun(0, limit) // private: encode and fsyncs leave ingest be
	total := len(merged)
	if total == 0 {
		return 0, nil
	}
	newSegs, err := tr.writeSegments(merged, false)
	if err != nil {
		return 0, err
	}
	// The hot side of the swap: trim the slabs in the same critical section
	// that registers the segments, so no query sees the rows double or gone.
	var removed int
	var freed uint64
	next := append(append([]*tierSegment(nil), tr.segs...), newSegs...)
	if err := s.commitTier(tr, limit, next, func() {
		for _, sh := range s.shards {
			n, b := sh.trimBelowID(limit)
			removed += n
			freed += b
		}
	}); err != nil {
		return 0, err
	}
	s.releaseHot(removed, freed)
	s.encodeAhead(tr) // drop the blobs this seal published or stranded
	tr.seals.Add(1)
	tr.sealedPackets.Add(uint64(total))
	obsTierSeals.Inc()
	obsTierSealedPkts.Add(uint64(total))
	obsTierSealSeconds.Observe(time.Since(start).Seconds())
	return removed, nil
}

// commitTier is steps 2–4 of the write protocol, the one place a seal, a
// compaction or a retention pass changes the registry: the manifest naming
// next and sealedBelow is published (the commit point); under tier.mu —
// plus, when hot is non-nil, every shard write lock, with hot run inside
// them to change the hot tier in the same critical section — next becomes
// the registry; then the segments only the old set named are dropped from
// the cache and unlinked (best effort; orphans are swept at attach). An
// error means the manifest was not published and nothing changed. Caller
// holds sealMu and has already written every file next names.
func (s *Store) commitTier(tr *tier, sealedBelow PacketID, next []*tierSegment, hot func()) error {
	if err := tr.writeManifestLocked(sealedBelow, next); err != nil {
		return err
	}
	old := tr.segs
	tr.mu.Lock()
	if hot != nil {
		for _, sh := range s.shards {
			sh.lock()
		}
		hot()
	}
	tr.setRegistryLocked(sealedBelow, next)
	if hot != nil {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}
	tr.mu.Unlock()
	gone := make(map[uint64]bool, len(old))
	for _, sg := range old {
		gone[sg.seq] = true
	}
	for _, sg := range next {
		delete(gone, sg.seq)
	}
	for seq := range gone {
		tr.fsys.Remove(filepath.Join(tr.dir, tierSegName(seq)))
	}
	if tr.cache != nil {
		tr.cache.dropSegs(gone)
	}
	return nil
}

// writeSegments chunks one (TS, ID)-sorted run into target-sized segment
// files and writes them durably. Seals chunk by ceiling (segments at most
// one target, balanced so there is no sliver tail): the policy trigger
// hands over a whole multiple of the target and gets exactly full files,
// while explicit seals and the sub-target fallback get balanced undersized
// ones for the compactor. Compaction chunks by floor (segments between one
// and two targets), so a merge always emits strictly fewer files than it
// consumed and the compactor converges instead of re-cutting the same
// undersized pieces forever. Caller holds sealMu.
func (tr *tier) writeSegments(rows []StoredPacket, compact bool) ([]*tierSegment, error) {
	n := len(rows)
	target := tr.policy.SegmentPackets
	nchunks := (n + target - 1) / target
	if compact {
		nchunks = n / target
	}
	if nchunks < 1 {
		nchunks = 1
	}
	for (n+nchunks-1)/nchunks > segMaxCount {
		nchunks++
	}
	size := (n + nchunks - 1) / nchunks // balanced: no sliver tail
	encode := tr.sealChunk
	if compact {
		encode = encodeSegment
	}
	var out []*tierSegment
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		blob, meta, err := encode(rows[lo:hi])
		if err != nil {
			return nil, err
		}
		seq := tr.nextSeq
		name := tierSegName(seq)
		tr.nextSeq++
		if err := tr.publishFile(name, blob); err != nil {
			return nil, err
		}
		out = append(out, &tierSegment{name: name, seq: seq, meta: meta, fileBytes: uint64(len(blob))})
	}
	return out, nil
}

// sealChunk encodes one seal chunk, or takes the blob encoded ahead for
// its ID range, waiting if the encoder is on it; one the encoder has not
// started leaves the list, and the chunk is encoded here. The blob holds
// every row its range had when encoded, and rows there are only ever
// removed, so a chunk in the range with the blob's row count has the same
// rows and bytes. A failed blob is never published.
func (tr *tier) sealChunk(rows []StoredPacket) ([]byte, segMeta, error) {
	first, last, S := rows[0].ID, rows[len(rows)-1].ID, PacketID(tr.policy.SegmentPackets)
	tr.preMu.Lock()
	i := slices.IndexFunc(tr.pre, func(p *preSeg) bool { return p.lo <= first && last < p.lo+S })
	var p *preSeg
	if i >= 0 && tr.pre[i].started {
		p = tr.pre[i]
	} else if i >= 0 {
		tr.pre = slices.Delete(tr.pre, i, i+1)
	}
	tr.preMu.Unlock()
	if p != nil {
		<-p.done
		if p.err == nil && p.meta.count == len(rows) {
			if !p.used.Swap(true) {
				obsTierPreUsed.Inc()
			}
			return p.blob, p.meta, nil
		}
	}
	blob, meta, err := encodeSegment(rows)
	if err != nil {
		tr.noteFail(obsTierSealErrs, err)
	}
	return blob, meta, err
}

// CompactTier merges runs of adjacent undersized segments into
// target-sized ones, returning how many input segments were replaced.
// Merging re-sorts via the k-way cursor — adjacent seals can interleave
// in (TS, ID) under concurrent serial ingest, so concatenation would be
// wrong. A decode failure aborts compaction (never drop data we cannot
// re-encode) and surfaces on TierStats.Err.
func (s *Store) CompactTier() (int, error) {
	tr := s.tier.Load()
	if tr == nil {
		return 0, nil
	}
	tr.sealMu.Lock()
	defer tr.sealMu.Unlock()
	replaced := 0
	for pass := 0; pass < len(tr.segs); pass++ {
		lo, hi := tr.findCompactRun()
		if hi <= lo {
			break
		}
		start := time.Now()
		runs := make([][]StoredPacket, 0, hi-lo)
		for _, sg := range tr.segs[lo:hi] {
			rows, err := tr.readSegRows(sg)
			if err != nil {
				tr.noteErr(err)
				return replaced, err
			}
			runs = append(runs, rows)
		}
		newSegs, err := tr.writeSegments(mergeRuns(runs), true)
		if err != nil {
			return replaced, err
		}
		next := make([]*tierSegment, 0, len(tr.segs)-(hi-lo)+len(newSegs))
		next = append(append(append(next, tr.segs[:lo]...), newSegs...), tr.segs[hi:]...)
		if err := s.commitTier(tr, PacketID(tr.sealedBelow.Load()), next, nil); err != nil {
			return replaced, err
		}
		replaced += hi - lo
		tr.compactions.Add(1)
		obsTierCompactions.Inc()
		obsTierCompactSeconds.Observe(time.Since(start).Seconds())
	}
	return replaced, nil
}

// findCompactRun picks the first maximal run of >=2 adjacent segments all
// under the size target whose total stays within two targets (so one
// compaction emits at most two full segments). Runs that would re-chunk
// into as many segments as they replace are skipped — every accepted run
// strictly shrinks the registry, so the compaction loop terminates.
// Caller holds sealMu.
func (tr *tier) findCompactRun() (lo, hi int) {
	target := tr.policy.SegmentPackets
	for i := 0; i < len(tr.segs); i++ {
		if tr.segs[i].meta.count >= target {
			continue
		}
		total := tr.segs[i].meta.count
		j := i + 1
		for j < len(tr.segs) && tr.segs[j].meta.count < target && total+tr.segs[j].meta.count <= 2*target {
			total += tr.segs[j].meta.count
			j++
		}
		if out := max(1, total/target); j-i >= 2 && out < j-i {
			return i, j
		}
		i = j - 1
	}
	return 0, 0
}

// RetainCold deletes cold segments whose newest packet is older than
// `before` — the cold tier's retention valve (the tiered analogue of
// EvictBefore's data drop). Flows that ended before the horizon are
// dropped with them. Returns segments deleted.
func (s *Store) RetainCold(before time.Duration) (int, error) {
	tr := s.tier.Load()
	if tr == nil {
		return 0, nil
	}
	tr.sealMu.Lock()
	defer tr.sealMu.Unlock()
	var keep []*tierSegment
	for _, sg := range tr.segs {
		if sg.meta.maxTS >= before {
			keep = append(keep, sg)
		}
	}
	dropped := len(tr.segs) - len(keep)
	if dropped == 0 {
		return 0, nil
	}
	if err := s.commitTier(tr, PacketID(tr.sealedBelow.Load()), keep, func() {
		for _, sh := range s.shards {
			sh.dropFlowsBefore(before)
		}
	}); err != nil {
		return 0, err
	}
	obsTierRetained.Add(uint64(dropped))
	return dropped, nil
}

// StartTierCompactor runs CompactTier (and retention, when the policy
// sets Retain) on a fixed cadence until the returned stop function is
// called. No-op (returning a callable stop) when tiering is off.
func (s *Store) StartTierCompactor(interval time.Duration) (stop func()) {
	tr := s.tier.Load()
	if tr == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.maintainTier(tr)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// maintainTier is one pass of the compactor: a compaction, then retention
// when the policy sets Retain. Nobody waits on the pass, so each failure
// is counted in campuslab_tier_maintenance_errors_total{op}; the next
// pass retries.
func (s *Store) maintainTier(tr *tier) {
	if _, err := s.CompactTier(); err != nil {
		obsTierCompactErrs.Inc()
	}
	if tr.policy.Retain > 0 {
		if _, err := s.RetainCold(time.Duration(s.lastTS.Load()) - tr.policy.Retain); err != nil {
			obsTierRetainErrs.Inc()
		}
	}
}

// loadSeg is the single segment file read: it maps the file exactly once
// (faults.FS.Map; on the real disk an mmap, or a plain read where that is
// unavailable) and frame-validates it. Column CRCs verify on access,
// memoized per blob. Only openSeg's directory build and a cursor's first
// block-cache miss call it. The release func must be called once decoding
// is done; directories and decoded rows never alias the mapping.
// Caller holds tr.mu.RLock (registry membership) or sealMu (mutators).
func (tr *tier) loadSeg(sg *tierSegment) (*segBlob, func(), error) {
	b, release, err := tr.fsys.Map(filepath.Join(tr.dir, sg.name))
	if err != nil {
		return nil, nil, err
	}
	sb, err := parseSegment(b)
	if err != nil {
		release()
		return nil, nil, err
	}
	return sb, release, nil
}

// readSegRows fully decodes one segment file for compaction. It bypasses
// the cache both ways: a compaction sweep reads each input once and
// deletes it, so caching its blocks or directory would only evict what
// queries still want.
func (tr *tier) readSegRows(sg *tierSegment) ([]StoredPacket, error) {
	cur, err := tr.openSeg(sg, false, nil)
	if err != nil {
		return nil, err
	}
	defer cur.close()
	return cur.rows(0, len(cur.dir.ids))
}

// segsInWindow returns registered segments overlapping the window. When
// the registry's TS bounds are sorted (tsSorted — the steady state), both
// window endpoints binary-search: the result is the contiguous run from
// the first segment with maxTS >= from up to the first with minTS >= to.
// Otherwise it falls back to the linear scan. Caller holds tr.mu.RLock; the returned slice
// aliases the registry and is only valid while the lock is held.
func (tr *tier) segsInWindow(w tsWin) []*tierSegment {
	if tr.tsSorted {
		lo := 0
		if w.hasFrom {
			lo = sort.Search(len(tr.segs), func(i int) bool { return tr.segs[i].meta.maxTS >= w.from })
		}
		hi := len(tr.segs)
		if w.hasTo {
			hi = sort.Search(len(tr.segs), func(i int) bool { return tr.segs[i].meta.minTS >= w.to })
		}
		if hi < lo {
			hi = lo
		}
		return tr.segs[lo:hi]
	}
	var out []*tierSegment
	for _, sg := range tr.segs {
		if (w.hasFrom && sg.meta.maxTS < w.from) || (w.hasTo && sg.meta.minTS >= w.to) {
			continue
		}
		out = append(out, sg)
	}
	return out
}

// forSegs evaluates fn over segs across the query workers, each segment
// through its own cursor. A segment that fails to open or evaluate is
// noted (sticky on TierStats) and left out of the answer: queries degrade
// loudly rather than fail. Caller holds tr.mu.RLock.
func (s *Store) forSegs(tr *tier, segs []*tierSegment, qs *queryStats, fn func(i int, cur *segCursor) error) {
	parallel.For(len(segs), int(s.queryWorkers.Load()), func(i int) {
		cur, err := tr.openSeg(segs[i], true, qs)
		if err == nil {
			err = fn(i, cur)
			cur.close()
		}
		if err != nil {
			tr.noteErr(err)
		}
	})
}

// coldWindowRuns decodes the rows of every segment overlapping the window
// into (TS, ID)-sorted runs — the cold half of the serial scan paths
// (scanRange and everything built on it). No zone pruning: this is the
// reference semantics, every row in the window is visited. Caller holds
// tr.mu.RLock.
func (s *Store) coldWindowRuns(tr *tier, w tsWin) [][]StoredPacket {
	segs := tr.segsInWindow(w)
	runs := make([][]StoredPacket, len(segs))
	var qs queryStats
	s.forSegs(tr, segs, &qs, func(i int, cur *segCursor) (err error) {
		runs[i], err = cur.rows(cur.span(w))
		return err
	})
	qs.flushCold()
	// Segments were visited in registry order, so compacting the non-empty
	// runs in place preserves the (TS, ID) merge order downstream.
	out := runs[:0]
	for _, r := range runs {
		if len(r) > 0 {
			out = append(out, r)
		}
	}
	tr.scanned.Add(uint64(len(segs)))
	obsTierScanned.Add(uint64(len(segs)))
	return out
}

// pruneSegs applies TS-bound and zone-map pruning, recording the prune
// accounting (pruned = registered segments minus decoded ones, so the
// E17 prune rate covers both bounds and zone maps). Caller holds
// tr.mu.RLock.
func (tr *tier) pruneSegs(f *Filter) []*tierSegment {
	inWindow := tr.segsInWindow(f.plan.win)
	considered := len(tr.segs)
	var keep []*tierSegment
	for _, sg := range inWindow {
		if f.plan.indexable && !sg.meta.zone.mayMatch(f.plan.keys) {
			continue
		}
		keep = append(keep, sg)
	}
	tr.scanned.Add(uint64(len(keep)))
	tr.pruned.Add(uint64(considered - len(keep)))
	obsTierScanned.Add(uint64(len(keep)))
	obsTierPruned.Add(uint64(considered - len(keep)))
	return keep
}
