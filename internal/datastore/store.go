// Package datastore implements the paper's §5 data store: "a single
// platform for collecting, storing, indexing, mining, and visualizing
// network data" — packet records with time and flow indexes, on-the-fly
// metadata, labels, linkage to complementary sensor events, a filter query
// language, and retention/storage accounting.
//
// The store is sharded: packets and flow metadata are partitioned across N
// shards by five-tuple hash, each shard with its own lock, packet slab and
// flow map, so ingest scales with cores. All query surfaces merge shards
// with a deterministic (timestamp, packet-ID) sort, so results are
// byte-for-byte identical at any shard count — including N=1, which is the
// exact serial store.
package datastore

import (
	"cmp"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"campuslab/internal/eventlog"
	"campuslab/internal/faults"
	"campuslab/internal/obs"
	"campuslab/internal/packet"
	"campuslab/internal/parallel"
	"campuslab/internal/traffic"
)

// PacketID identifies one stored packet. IDs are allocated from a single
// store-wide sequence (never per shard), so they stay globally unique and
// ascending in arrival order no matter how packets are spread over shards.
type PacketID uint64

// StoredPacket is one packet record with its on-the-fly metadata (the
// parsed Summary), kept alongside the raw bytes.
type StoredPacket struct {
	ID      PacketID
	TS      time.Duration
	Link    uint16
	Summary packet.Summary
	Data    []byte
	// Label/Actor carry per-packet ground truth when the packet came
	// from a labeled generator (zero values otherwise). Actor marks the
	// packet's source as the malicious actor, not a victim response.
	Label traffic.Label
	Actor bool
}

// FlowKey is the canonical five-tuple a flow is indexed under.
type FlowKey = packet.FiveTuple

// FlowMeta is the per-flow aggregate the store maintains incrementally —
// the "extensive set of on-the-fly generated metadata".
type FlowMeta struct {
	Key          FlowKey
	First        time.Duration
	Last         time.Duration
	Packets      uint64
	Bytes        uint64
	PayloadBytes uint64
	TCPFlags     packet.TCPFlags
	DNSQueries   uint32
	DNSResponses uint32
	DNSAnyCount  uint32        // DNS messages with QTYPE=ANY (amplification tell)
	Label        traffic.Label // ground truth if registered, else benign
	Labeled      bool
	pktIDs       []PacketID
}

// PacketIDs returns the IDs of this flow's packets in arrival order
// (ascending ID). A flow lives entirely inside one shard, so the list is
// maintained in order at ingest time and needs no merge.
func (m *FlowMeta) PacketIDs() []PacketID { return m.pktIDs }

// shard is one partition of the store: its own lock, packet slab, flow
// map, and secondary index. Within a shard, packets are ordered by
// (TS, ID) — both ascending.
type shard struct {
	mu         sync.RWMutex
	packets    []StoredPacket
	flows      map[FlowKey]*FlowMeta
	index      *postings
	dataBytes  uint64
	indexBytes uint64

	// flowSlab and idSlab are the unused tails newFlow cuts new flows
	// from. A slab lives while any flow cut from it does.
	flowSlab []FlowMeta
	idSlab   []PacketID
}

// flowSlabLen is how many flows one slab refill serves: one FlowMeta slab
// (38 KB) and one ID slab of two entries a flow (4 KB) per 256 new flows.
const flowSlabLen = 256

// newFlow cuts a flow's metadata from the shard's FlowMeta slab and starts
// its ID list as an empty window of capacity 2 cut from the ID slab, so a
// flow's first two packets allocate nothing; the third reallocates through
// append, and in-place edits (insert-sort, eviction's trim) stay inside the
// window. Caller holds the shard write lock.
func (sh *shard) newFlow(key FlowKey, first time.Duration) *FlowMeta {
	if len(sh.flowSlab) == 0 {
		sh.flowSlab = make([]FlowMeta, flowSlabLen)
		sh.idSlab = make([]PacketID, 2*flowSlabLen)
	}
	fm := &sh.flowSlab[0]
	fm.Key, fm.First, fm.pktIDs = key, first, sh.idSlab[:0:2]
	sh.flowSlab, sh.idSlab = sh.flowSlab[1:], sh.idSlab[2:]
	return fm
}

// Store-level metrics, registered once in the process-wide registry.
// These are batch- or event-granularity (never per-packet on a hot loop
// except the serial ingest path, where one atomic add is noise next to
// parsing), so plain registry counters are fine.
var (
	obsIngestBatches   = obs.Default.Counter("campuslab_store_ingest_batches_total")
	obsIngestPackets   = obs.Default.Counter("campuslab_store_ingest_packets_total")
	obsMergeReads      = obs.Default.Counter("campuslab_store_merge_reads_total")
	obsShardContention = obs.Default.Counter(obs.ShardContentionName)
	obsIngestBatchSize = obs.Default.Histogram("campuslab_store_ingest_batch_size",
		[]float64{64, 256, 1024, 4096, 16384})
)

// lock acquires the shard write lock, counting contended acquisitions into
// the registry so shard pressure is observable.
func (sh *shard) lock() {
	if sh.mu.TryLock() {
		return
	}
	obsShardContention.Inc()
	sh.mu.Lock()
}

// Store is the sharded campus data store. Safe for concurrent writers and
// readers; single-writer ingest is fully deterministic.
type Store struct {
	shards []*shard
	mask   uint64 // len(shards)-1; shard count is a power of two

	nextID atomic.Uint64
	lastTS atomic.Int64 // max clamped ingest timestamp seen so far

	eventsMu        sync.RWMutex
	events          []eventlog.Event // time-ordered after AddEvents sorts
	eventIndexBytes uint64

	// persistFaults injects failures into the write/sync/rename steps of
	// SaveFile (and, mirrored on the tier, of segment and manifest
	// publishes) for crash-safety tests (nil = healthy).
	persistFaults faults.Injector

	// scanQuery forces Select/Count onto the serial full-scan reference
	// path (see SetScanQuery); queryWorkers bounds query fan-out
	// (0 = GOMAXPROCS).
	scanQuery    atomic.Bool
	queryWorkers atomic.Int32

	// ingestMu serializes the durability-critical ingest section (WAL
	// append + shard apply) against Checkpoint, so no batch can land in a
	// truncated log without being in the snapshot. It is only taken when
	// a WAL is attached — the lock-free batched path is untouched
	// otherwise. wal is nil for a purely in-memory store; it is an atomic
	// pointer so the hot ingest paths pay one load, not a lock, to learn
	// there is no log.
	ingestMu sync.Mutex
	wal      atomic.Pointer[WAL]

	// totPackets/totBytes track live occupancy for the admission gate
	// (updated per batch and by eviction, never per packet on a hot loop).
	totPackets atomic.Uint64
	totBytes   atomic.Uint64

	// admission is the ingest gate config (zero value = disabled);
	// admissionOn mirrors admission.enabled() so the serial ingest fast
	// path learns "no gate" from one atomic load instead of the RWMutex.
	// Occupancy (totPackets/totBytes) counts the HOT tier only: sealing
	// packets into cold segments frees occupancy, so the gate reopens as
	// data demotes instead of wedging shut once the store fills.
	admissionMu sync.RWMutex
	admission   AdmissionConfig
	admissionOn atomic.Bool

	// tier is the cold tier (tier.go); nil until EnableTiering. An atomic
	// pointer so the ingest and query hot paths learn "no cold tier" from
	// one load.
	tier atomic.Pointer[tier]
}

// scanQueryEnv, when set to any non-empty value, makes every new Store
// answer queries through the serial full-scan reference path instead of
// the index-assisted planner — the query-engine counterpart of the
// dataplane's CAMPUSLAB_SCAN_PATH knob.
const scanQueryEnv = "CAMPUSLAB_SCAN_QUERY"

// SetScanQuery forces (or releases) the serial full-scan reference path
// for Select/Count. Results are identical either way; the knob exists so
// tests and operators can diff the planner against the reference.
func (s *Store) SetScanQuery(scan bool) { s.scanQuery.Store(scan) }

// SetQueryWorkers bounds the goroutines a single query fans out across
// shards (0 restores the GOMAXPROCS default). Results are identical at
// any setting.
func (s *Store) SetQueryWorkers(n int) { s.queryWorkers.Store(int32(n)) }

// parserPool recycles flow parsers so concurrent ingest paths each get a
// private scratch parser without per-packet allocation.
var parserPool = sync.Pool{New: func() any { return packet.NewFlowParser() }}

// defaultShards is the shard count New uses: GOMAXPROCS rounded up to a
// power of two, capped at 16 (past that, merge cost outweighs lock spread
// at campus scale).
func defaultShards() int {
	n := parallel.Workers(0)
	if n > 16 {
		n = 16
	}
	return ceilPow2(n)
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New returns an empty store with defaultShards shards.
func New() *Store { return NewSharded(0) }

// NewSharded returns an empty store with n shards (rounded up to a power
// of two; n<=0 means defaultShards). Results of every query are identical
// at any shard count.
func NewSharded(n int) *Store {
	if n <= 0 {
		n = defaultShards()
	}
	if n > 256 {
		n = 256
	}
	n = ceilPow2(n)
	s := &Store{shards: make([]*shard, n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i] = &shard{flows: make(map[FlowKey]*FlowMeta), index: newPostings()}
	}
	s.lastTS.Store(int64(-1 << 62))
	s.scanQuery.Store(os.Getenv(scanQueryEnv) != "")
	return s
}

// numShards returns the shard count.
func (s *Store) numShards() int { return len(s.shards) }

// shardFor routes a parsed packet: flows hash to a fixed shard so per-flow
// state never crosses shards; non-IP packets spread round-robin by ID.
func (s *Store) shardFor(it *ingestItem) int {
	if it.summary.HasIP {
		return int(it.hash & s.mask)
	}
	return int(uint64(it.id) & s.mask)
}

// clampTS enforces the store-wide non-decreasing timestamp contract:
// frames must arrive in non-decreasing order (the capture pipeline
// guarantees this per tap; multi-tap ingest should merge first); minor
// reordering is clamped rather than corrupting the time index.
func (s *Store) clampTS(ts time.Duration) time.Duration {
	for {
		last := s.lastTS.Load()
		if int64(ts) <= last {
			return time.Duration(last)
		}
		if s.lastTS.CompareAndSwap(last, int64(ts)) {
			return ts
		}
	}
}

// ingestItem is one parsed, ID-assigned packet ready to apply to a shard.
// key and hash are the canonical flow key and its hash (zero for non-IP
// packets), computed once where the packet is parsed: shard routing reads
// the hash, apply indexes the flow under the key.
type ingestItem struct {
	id      PacketID
	ts      time.Duration
	link    uint16
	data    []byte
	summary packet.Summary
	key     FlowKey
	hash    uint64
	label   traffic.Label
	actor   bool
}

// parse fills the item's summary, flow key and hash from its bytes.
// Unparseable frames (ErrNotIP etc.) keep their partial summary.
func (it *ingestItem) parse(p *packet.FlowParser) {
	_ = p.Parse(it.data, &it.summary)
	if it.summary.HasIP {
		it.key = it.summary.Tuple.Canonical()
		it.hash = it.key.Hash()
	}
}

// batchScratch is addBatch's working set — the parsed items and the
// per-shard index lists — pooled so a batch costs no allocation
// proportional to its frames. Items hold frame bytes and address handles,
// so they are cleared before the scratch goes back.
type batchScratch struct {
	items    []ingestItem
	perShard [][]int
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// minSlab is a shard slab's first capacity.
const minSlab = 64

// grow makes room for one more slab row. Capacity doubles, so a row is
// copied twice amortised over the slab's life (append's 1.25x policy for
// large slices re-cleared and re-copied every row about five times).
func (sh *shard) grow() {
	if len(sh.packets) < cap(sh.packets) {
		return
	}
	c := 2 * cap(sh.packets)
	if c < minSlab {
		c = minSlab
	}
	sh.packets = append(make([]StoredPacket, 0, c), sh.packets...)
}

// dropPrefix removes s[:cut] in place: the survivors are copied down and
// the vacated tail zeroed, so nothing it pointed at stays reachable.
// Capacity is kept for the next fill unless under a quarter of it is still
// in use, in which case the survivors move to a slice twice their length.
func dropPrefix[T any](s []T, cut int) []T {
	n := copy(s, s[cut:])
	clear(s[n:])
	s = s[:n]
	if n < cap(s)/4 {
		if n == 0 {
			return nil
		}
		return append(make([]T, 0, 2*n), s...)
	}
	return s
}

// apply inserts one packet into the shard and updates its flow metadata.
// Caller holds the shard write lock. Items normally arrive in ascending ID
// order (append fast path); concurrent single-packet ingest can interleave
// IDs across goroutines, in which case the packet is insert-sorted and its
// timestamp pinched into its neighbors' range to keep both orderings.
func (sh *shard) apply(it *ingestItem) {
	sp := StoredPacket{
		ID: it.id, TS: it.ts, Link: it.link, Data: it.data,
		Summary: it.summary, Label: it.label, Actor: it.actor,
	}
	n := len(sh.packets)
	if n > 0 && sp.TS < sh.packets[n-1].TS {
		sp.TS = sh.packets[n-1].TS
	}
	sh.grow()
	if n == 0 || sp.ID > sh.packets[n-1].ID {
		sh.packets = append(sh.packets, sp)
	} else {
		i := sort.Search(n, func(i int) bool { return sh.packets[i].ID >= sp.ID })
		if sp.TS < sh.packets[i].TS { // keep (TS, ID) co-sorted
			sp.TS = sh.packets[i].TS
		}
		if i > 0 && sp.TS < sh.packets[i-1].TS {
			sp.TS = sh.packets[i-1].TS
		}
		sh.packets = append(sh.packets, StoredPacket{})
		copy(sh.packets[i+1:], sh.packets[i:])
		sh.packets[i] = sp
	}
	sh.dataBytes += uint64(len(sp.Data))
	sh.indexBytes += 8 * uint64(sh.index.add(&sp))

	if !sp.Summary.HasIP {
		return
	}
	fm, ok := sh.flows[it.key]
	if !ok {
		fm = sh.newFlow(it.key, sp.TS)
		sh.flows[it.key] = fm
		sh.indexBytes += 96 // rough per-flow index cost
	}
	if sp.TS > fm.Last {
		fm.Last = sp.TS
	}
	fm.Packets++
	fm.Bytes += uint64(len(sp.Data))
	fm.PayloadBytes += uint64(sp.Summary.PayloadLen)
	fm.TCPFlags |= sp.Summary.TCPFlags
	if sp.Summary.IsDNS {
		if sp.Summary.DNSResponse {
			fm.DNSResponses++
		} else {
			fm.DNSQueries++
		}
		if sp.Summary.DNSQueryType == packet.DNSTypeANY {
			fm.DNSAnyCount++
		}
	}
	if k := len(fm.pktIDs); k == 0 || sp.ID > fm.pktIDs[k-1] {
		fm.pktIDs = append(fm.pktIDs, sp.ID)
	} else {
		i := sort.Search(k, func(i int) bool { return fm.pktIDs[i] >= sp.ID })
		fm.pktIDs = append(fm.pktIDs, 0)
		copy(fm.pktIDs[i+1:], fm.pktIDs[i:])
		fm.pktIDs[i] = sp.ID
	}
	sh.indexBytes += 8
	if it.label != traffic.LabelBenign {
		fm.Label = it.label
		fm.Labeled = true
	}
}

// IngestFrame parses and stores one generator frame, registering its
// ground-truth label at both packet and flow granularity. Unparseable
// frames are stored with an empty summary so the "everything seen on the
// wire" contract holds. A nil error is the acknowledgment: on a durable
// store the frame is WAL-logged first and a log failure refuses the frame;
// on a gated store at capacity the frame is refused with ErrOverloaded (a
// shed low-priority frame returns nil — dropped by design, like the
// batched path).
//
// A purely in-memory, ungated store takes the lock-free serial fast path;
// once a WAL is attached or an admission gate is configured, the frame
// goes through appendBatch so serial ingest has exactly the batched path's
// semantics — gated, logged before the ack, and refused (not quietly kept
// in memory) when the log fails. The fast path is not a one-frame batch on
// purpose: it allocates nothing and costs about 0.6x of one (DESIGN §13).
func (s *Store) IngestFrame(f *traffic.Frame) (PacketID, error) {
	if s.wal.Load() != nil || s.admissionOn.Load() {
		r, err := s.appendBatch([]traffic.Frame{*f}, nil, 1)
		return r.First, err
	}
	it := ingestItem{data: f.Data, label: f.Label, actor: f.Actor}
	p := parserPool.Get().(*packet.FlowParser)
	it.parse(p)
	parserPool.Put(p)
	it.id = PacketID(s.nextID.Add(1) - 1)
	it.ts = s.clampTS(f.TS)
	sh := s.shards[s.shardFor(&it)]
	sh.lock()
	sh.apply(&it)
	sh.mu.Unlock()
	s.totPackets.Add(1)
	s.totBytes.Add(uint64(len(it.data)))
	obsIngestPackets.Inc()
	s.maybeSeal()
	return it.id, nil
}

// AddBatch stores a batch of frames: parsing fans out across workers
// (0 = GOMAXPROCS), contiguous IDs are assigned up front, and each shard
// is locked once for its whole slice of the batch — the amortized ingest
// path for the capture pipeline. Output is identical to calling
// IngestFrame in order. Returns the ID of the first stored frame;
// subsequent frames take consecutive IDs.
//
// This is the acknowledged ingest path: when an admission gate is
// configured the batch may be shed in part (low-priority frames dropped)
// or refused outright with ErrOverloaded, and when a WAL is attached the
// batch is durable on disk before AddBatch returns — a nil error IS the
// durability acknowledgment.
func (s *Store) AddBatch(frames []traffic.Frame, workers int) (PacketID, error) {
	r, err := s.AddBatchAdmit(frames, workers)
	return r.First, err
}

// AddBatchAdmit is AddBatch with the full admission outcome (stored vs
// shed counts and the gate posture that applied).
func (s *Store) AddBatchAdmit(frames []traffic.Frame, workers int) (IngestResult, error) {
	return s.appendBatch(frames, nil, workers)
}

// appendBatch is the guarded batched-ingest front door: admission gate,
// then write-ahead log, then shard apply. The WAL append and the apply sit
// under ingestMu so a concurrent Checkpoint can never truncate a record
// whose batch is not yet in the snapshot.
func (s *Store) appendBatch(frames []traffic.Frame, links []uint16, workers int) (IngestResult, error) {
	kept, keptLinks, shed, state, err := s.admitBatch(frames, links)
	r := IngestResult{Shed: shed, State: state}
	if err != nil {
		return r, err
	}
	if len(kept) == 0 {
		r.First = PacketID(s.nextID.Load())
		return r, nil
	}
	if w := s.wal.Load(); w != nil {
		s.ingestMu.Lock()
		if err := w.Append(kept, keptLinks); err != nil {
			s.ingestMu.Unlock()
			return r, err
		}
		r.First = s.addBatch(kept, keptLinks, workers)
		s.ingestMu.Unlock()
	} else {
		r.First = s.addBatch(kept, keptLinks, workers)
	}
	r.Ingested = len(kept)
	// Seal trigger runs outside ingestMu so spilling to the cold tier
	// never blocks the WAL ack path.
	s.maybeSeal()
	return r, nil
}

// addBatch is AddBatch with optional per-frame link ids (nil means link 0
// everywhere — the generator path). Links ride through parsing so every
// packet is indexed under its final link value.
func (s *Store) addBatch(frames []traffic.Frame, links []uint16, workers int) PacketID {
	n := len(frames)
	if n == 0 {
		return PacketID(s.nextID.Load())
	}
	defer obs.Default.StartSpan("ingest").End()
	obsIngestBatches.Inc()
	obsIngestPackets.Add(uint64(n))
	obsIngestBatchSize.Observe(float64(n))
	sc := batchPool.Get().(*batchScratch)
	if cap(sc.items) < n {
		sc.items = make([]ingestItem, n)
	}
	items := sc.items[:n]
	parallel.ForChunks(n, workers, func(lo, hi int) {
		p := parserPool.Get().(*packet.FlowParser)
		for i := lo; i < hi; i++ {
			f := &frames[i]
			it := &items[i]
			it.link, it.data, it.label, it.actor = 0, f.Data, f.Label, f.Actor
			if links != nil {
				it.link = links[i]
			}
			it.ts = f.TS
			it.parse(p)
		}
		parserPool.Put(p)
	})
	base := PacketID(s.nextID.Add(uint64(n)) - uint64(n))
	var nbytes uint64
	for i := range frames {
		nbytes += uint64(len(frames[i].Data))
	}
	s.totPackets.Add(uint64(n))
	s.totBytes.Add(nbytes)
	// Timestamp clamp is sequential state; resolve it once, in order.
	prev := time.Duration(s.lastTS.Load())
	for i := range items {
		items[i].id = base + PacketID(i)
		if items[i].ts < prev {
			items[i].ts = prev
		}
		prev = items[i].ts
	}
	s.clampTS(prev)
	// Partition by shard, preserving ID order within each partition.
	if len(sc.perShard) != len(s.shards) {
		sc.perShard = make([][]int, len(s.shards))
	}
	perShard := sc.perShard
	for i := range items {
		si := s.shardFor(&items[i])
		perShard[si] = append(perShard[si], i)
	}
	parallel.For(len(s.shards), workers, func(si int) {
		idxs := perShard[si]
		if len(idxs) == 0 {
			return
		}
		sh := s.shards[si]
		sh.lock()
		for _, i := range idxs {
			sh.apply(&items[i])
		}
		sh.mu.Unlock()
	})
	clear(items)
	for si := range perShard {
		perShard[si] = perShard[si][:0]
	}
	batchPool.Put(sc)
	return base
}

// AddBatchLinks is AddBatchAdmit with per-frame link ids (nil = link 0
// everywhere) — the remote-ingest path, where frames arrive from another
// campus's taps with their capture links attached. links, when non-nil,
// must be parallel to frames.
func (s *Store) AddBatchLinks(frames []traffic.Frame, links []uint16, workers int) (IngestResult, error) {
	if links != nil && len(links) != len(frames) {
		return IngestResult{}, fmt.Errorf("datastore: %d links for %d frames", len(links), len(frames))
	}
	return s.appendBatch(frames, links, workers)
}

// Packet returns a copy of the stored packet with the given ID, hot or
// sealed. Segment ID ranges can overlap across seal generations (chunking
// follows (TS, ID) order, not ID order), so every range-covering segment is
// checked; one that fails to decode is noted and reported as a miss.
func (s *Store) Packet(id PacketID) (StoredPacket, bool) {
	var qs queryStats
	defer qs.flushCold()
	found, _ := s.execute(&qs, func(tr *tier) []*tierSegment {
		var segs []*tierSegment
		for _, sg := range tr.segs {
			if id >= sg.meta.minID && id <= sg.meta.maxID {
				segs = append(segs, sg)
			}
		}
		return segs
	}, func(r run, out *[]StoredPacket) (int, error) {
		pos, ok := r.find(id)
		if !ok {
			return 0, nil
		}
		sp, err := r.at(pos)
		if err != nil {
			return 0, err
		}
		*out = append(*out, *sp)
		return 1, nil
	})
	for _, f := range found {
		if len(f) > 0 {
			return f[0], true
		}
	}
	return StoredPacket{}, false
}

// flowShard returns the shard owning key (already canonical or not).
func (s *Store) flowShard(key FlowKey) *shard {
	return s.shards[key.Canonical().Hash()&s.mask]
}

// LabelFlow registers ground truth (or an analyst label) for a flow.
func (s *Store) LabelFlow(key FlowKey, label traffic.Label) error {
	sh := s.flowShard(key)
	sh.lock()
	defer sh.mu.Unlock()
	fm, ok := sh.flows[key.Canonical()]
	if !ok {
		return fmt.Errorf("datastore: no flow %v", key)
	}
	fm.Label = label
	fm.Labeled = true
	return nil
}

// Flow returns the metadata of the flow containing the tuple.
func (s *Store) Flow(key FlowKey) (FlowMeta, bool) {
	sh := s.flowShard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fm, ok := sh.flows[key.Canonical()]
	if !ok {
		return FlowMeta{}, false
	}
	out := *fm
	out.pktIDs = append([]PacketID(nil), fm.pktIDs...)
	return out, true
}

// rlockAll takes every shard read lock (in shard order) and returns the
// unlock function. Writers only ever hold one shard at a time, so the
// fixed acquisition order cannot deadlock.
func (s *Store) rlockAll() func() {
	obsMergeReads.Inc()
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	return func() {
		for _, sh := range s.shards {
			sh.mu.RUnlock()
		}
	}
}

// Flows returns a snapshot of all flow metadata, ordered by first packet.
func (s *Store) Flows() []FlowMeta {
	unlock := s.rlockAll()
	defer unlock()
	total := 0
	for _, sh := range s.shards {
		total += len(sh.flows)
	}
	out := make([]FlowMeta, 0, total)
	for _, sh := range s.shards {
		for _, fm := range sh.flows {
			cp := *fm
			cp.pktIDs = append([]PacketID(nil), fm.pktIDs...)
			out = append(out, cp)
		}
	}
	sortFlows(out)
	return out
}

// flowBefore is the total flow order every listing and snapshot uses: by
// first packet time, then key hash, then the key itself — two keys can
// share a hash (an IPv4 flow and its ::ffff:-mapped IPv6 twin always do).
func flowBefore(a, b *FlowMeta) bool {
	if a.First != b.First {
		return a.First < b.First
	}
	if ha, hb := a.Key.Hash(), b.Key.Hash(); ha != hb {
		return ha < hb
	}
	return cmp.Or(cmp.Compare(a.Key.Proto, b.Key.Proto), a.Key.SrcIP.Compare(b.Key.SrcIP), a.Key.DstIP.Compare(b.Key.DstIP),
		cmp.Compare(a.Key.SrcPort, b.Key.SrcPort), cmp.Compare(a.Key.DstPort, b.Key.DstPort)) < 0
}

// sortFlows orders flow snapshots by flowBefore.
func sortFlows(out []FlowMeta) {
	sort.Slice(out, func(i, j int) bool { return flowBefore(&out[i], &out[j]) })
}

// AddEvents ingests complementary sensor events (already clock-corrected).
func (s *Store) AddEvents(evs []eventlog.Event) {
	s.eventsMu.Lock()
	defer s.eventsMu.Unlock()
	s.events = append(s.events, evs...)
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].TS < s.events[j].TS })
	for _, e := range evs {
		s.eventIndexBytes += uint64(24 + len(e.Message) + len(e.Host))
	}
}

// Stats describes store volume — the E7 storage-accounting surface.
// Packets/DataBytes/IndexBytes describe the hot tier (the RAM-resident
// bytes the admission gate meters); the Cold* fields describe sealed
// on-disk segments, so the two tiers stay separately honest.
type Stats struct {
	Packets    uint64
	Flows      uint64
	Events     uint64
	DataBytes  uint64 // raw packet bytes (hot tier)
	IndexBytes uint64 // metadata/index overhead estimate (hot tier)
	Span       time.Duration

	// Cold tier (all zero when tiering is off).
	ColdPackets uint64
	ColdBytes   uint64 // compressed segment file bytes on disk
	Segments    uint64
}

// totalBytes is data plus index plus cold segments — the full footprint
// across both tiers (identical to the old definition when tiering is off).
func (st Stats) totalBytes() uint64 { return st.DataBytes + st.IndexBytes + st.ColdBytes }

// BytesPerSecond returns the storage accrual rate over the stored span.
func (st Stats) BytesPerSecond() float64 {
	if st.Span <= 0 {
		return 0
	}
	return float64(st.totalBytes()) / st.Span.Seconds()
}

// Stats returns current volume accounting.
func (s *Store) Stats() Stats {
	unlock := s.rlockAll()
	var st Stats
	first := time.Duration(1<<63 - 1)
	last := time.Duration(-1 << 62)
	for _, sh := range s.shards {
		st.Packets += uint64(len(sh.packets))
		st.Flows += uint64(len(sh.flows))
		st.DataBytes += sh.dataBytes
		st.IndexBytes += sh.indexBytes
		if n := len(sh.packets); n > 0 {
			if sh.packets[0].TS < first {
				first = sh.packets[0].TS
			}
			if sh.packets[n-1].TS > last {
				last = sh.packets[n-1].TS
			}
		}
	}
	unlock()
	if tr := s.tier.Load(); tr != nil {
		tr.mu.RLock()
		st.ColdPackets = tr.coldPackets
		st.ColdBytes = tr.coldBytes
		st.Segments = uint64(len(tr.segs))
		for _, sg := range tr.segs {
			if sg.meta.minTS < first {
				first = sg.meta.minTS
			}
			if sg.meta.maxTS > last {
				last = sg.meta.maxTS
			}
		}
		tr.mu.RUnlock()
	}
	if st.Packets+st.ColdPackets > 0 {
		st.Span = last - first
	}
	s.eventsMu.RLock()
	st.Events = uint64(len(s.events))
	st.IndexBytes += s.eventIndexBytes
	s.eventsMu.RUnlock()
	return st
}

// EvictBefore drops packets (and empty flows) older than ts, returning the
// number of packets evicted — the retention enforcement path. Shards are
// evicted independently; a concurrent reader may observe some shards
// trimmed before others.
//
// On a tiered store, eviction is seal-aware: the candidates are sealed
// into cold segments instead of destroyed, so the hot tier shrinks by the
// same amount but the history stays queryable (cold retention is the
// TierPolicy's Retain horizon, enforced by the compactor).
func (s *Store) EvictBefore(ts time.Duration) int {
	if tr := s.tier.Load(); tr != nil {
		n, _ := s.sealBefore(ts)
		return n
	}
	total := 0
	var freed uint64
	for _, sh := range s.shards {
		sh.lock()
		n, b := sh.evictBefore(ts)
		total += n
		freed += b
		sh.mu.Unlock()
	}
	s.releaseHot(total, freed)
	return total
}

// releaseHot takes n packets holding b bytes off the hot occupancy the
// admission gate meters, so the gate reopens as eviction and sealing
// reclaim space.
func (s *Store) releaseHot(n int, b uint64) {
	if n > 0 {
		s.totPackets.Add(^uint64(n) + 1)
		s.totBytes.Add(^b + 1)
	}
}

// dropRows removes the slab's first cut rows and the posting entries below
// the given ID, returning the packet bytes released. Caller holds the shard
// write lock.
func (sh *shard) dropRows(cut int, below PacketID) (freed uint64) {
	for i := range sh.packets[:cut] {
		freed += uint64(len(sh.packets[i].Data))
	}
	sh.dataBytes -= freed
	sh.packets = dropPrefix(sh.packets, cut)
	sh.indexBytes -= 8 * uint64(sh.index.evictBelow(below))
	return freed
}

func (sh *shard) evictBefore(ts time.Duration) (int, uint64) {
	cut := sort.Search(len(sh.packets), func(i int) bool { return sh.packets[i].TS >= ts })
	if cut == 0 {
		return 0, 0
	}
	// The evicted prefix is also an ID prefix (the slab is co-sorted), so
	// posting lists trim below the last evicted ID + 1 — a bound later
	// evictions can still exceed when this one empties the shard.
	freed := sh.dropRows(cut, sh.packets[cut-1].ID+1)
	// Rebuild flow packet-ID lists lazily: drop flows that ended before ts.
	// A flow's packets all live in this shard, so the shard-local minimum
	// surviving ID bounds exactly the IDs this flow may still reference.
	for k, fm := range sh.flows {
		if fm.Last < ts {
			delete(sh.flows, k)
			continue
		}
		if fm.First < ts {
			minID := PacketID(0)
			if len(sh.packets) > 0 {
				minID = sh.packets[0].ID
			}
			ids := fm.pktIDs[:0]
			for _, id := range fm.pktIDs {
				if id >= minID {
					ids = append(ids, id)
				}
			}
			fm.pktIDs = ids
		}
	}
	return cut, freed
}
