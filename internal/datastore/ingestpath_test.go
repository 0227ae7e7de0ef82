package datastore

import (
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// Tests for the structures of the per-packet ingest path: the hash-free
// posting families, the slab that grows by doubling and evicts in place,
// and the pooled batch scratch.

// modelPostings is the reference the array and page-table families are
// checked against: one map from posting-list name to its sorted IDs.
type modelPostings map[ixRef][]PacketID

func (m modelPostings) add(sp *StoredPacket) int {
	refs := []ixRef{
		{ixProto, uint64(sp.Summary.Tuple.Proto)},
		{ixSrcPort, uint64(sp.Summary.Tuple.SrcPort)},
		{ixDstPort, uint64(sp.Summary.Tuple.DstPort)},
		{ixLink, uint64(sp.Link)},
		{ixLabel, uint64(sp.Label)},
	}
	for fl, on := range []bool{sp.Summary.HasIP, sp.Summary.HasTCP, sp.Summary.HasUDP,
		sp.Summary.HasICMP, sp.Summary.IsDNS, sp.Summary.DNSResponse} {
		if on {
			refs = append(refs, ixRef{ixFlag, uint64(fl)})
		}
	}
	for _, ref := range refs {
		ids := append(m[ref], sp.ID)
		slices.Sort(ids)
		m[ref] = ids
	}
	return len(refs)
}

func (m modelPostings) evictBelow(minID PacketID) (removed int) {
	for ref, ids := range m {
		keep := ids[:0]
		for _, id := range ids {
			if id >= minID {
				keep = append(keep, id)
			}
		}
		removed += len(ids) - len(keep)
		m[ref] = keep
	}
	return removed
}

// everyRef walks the whole domain of every family, plus values just
// outside it (which no packet can match).
func everyRef(visit func(ixRef)) {
	for v := uint64(0); v <= 0x100; v++ {
		visit(ixRef{ixProto, v})
		visit(ixRef{ixLabel, v})
	}
	for v := uint64(0); v <= 0x10000; v++ {
		visit(ixRef{ixSrcPort, v})
		visit(ixRef{ixDstPort, v})
		visit(ixRef{ixLink, v})
	}
	for v := uint64(0); v <= numFlags; v++ {
		visit(ixRef{ixFlag, v})
	}
}

// TestPostingsMatchMapModel drives the postings and a plain map through
// the same random add/evictBelow sequences and compares every lookup in
// every family's domain. The generator leans on the places an index-
// addressed table can go wrong where a map cannot: the first and last
// slot of the first and last page (ports and links 0, 255, 256, 65535),
// non-IP packets filed under proto/port 0, IDs arriving out of order (the
// insert-sort path), lists that empty and refill, and repeat evictions at
// or below the watermark.
func TestPostingsMatchMapModel(t *testing.T) {
	edges := []uint16{0, 1, 255, 256, 257, 0xff00, 0xfffe, 0xffff, 53, 443}
	pick := func(r *rand.Rand) uint16 {
		if r.Intn(3) == 0 {
			return uint16(r.Intn(0x10000))
		}
		return edges[r.Intn(len(edges))]
	}
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		px, model := newPostings(), modelPostings{}
		next, floor := PacketID(1), PacketID(0)
		check := func(step int) {
			t.Helper()
			everyRef(func(ref ixRef) {
				if got, want := px.lookup(ref), model[ref]; !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: lookup(%+v) = %v, model has %v", seed, step, ref, got, want)
				}
			})
		}
		for step := 0; step < 3000; step++ {
			if r.Intn(40) == 0 {
				// Evict below a random ID: sometimes below the watermark (a
				// no-op), sometimes past every ID stored (everything goes).
				minID := PacketID(r.Int63n(int64(next) + 2))
				if got, want := px.evictBelow(minID), model.evictBelow(minID); got != want {
					t.Fatalf("seed %d step %d: evictBelow(%d) removed %d entries, model %d", seed, step, minID, got, want)
				}
				if minID > floor {
					floor = minID
				}
				if next < floor {
					next = floor // the store never reuses an evicted ID
				}
				continue
			}
			// A burst of packets whose IDs arrive shuffled, as concurrent
			// single-packet ingest delivers them.
			ids := make([]PacketID, 1+r.Intn(4))
			for i := range ids {
				ids[i] = next
				next++
			}
			r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			for _, id := range ids {
				sp := StoredPacket{ID: id, Link: pick(r), Label: traffic.Label(r.Intn(int(traffic.NumLabels)))}
				if r.Intn(5) > 0 { // else non-IP: proto and ports stay 0, no flags
					s := &sp.Summary
					s.HasIP = true
					s.Tuple.Proto = packet.IPProtocol([]uint8{0, 1, 6, 17, 255}[r.Intn(5)])
					s.Tuple.SrcPort, s.Tuple.DstPort = pick(r), pick(r)
					s.HasTCP, s.HasUDP, s.HasICMP = r.Intn(2) == 0, r.Intn(3) == 0, r.Intn(9) == 0
					s.IsDNS = r.Intn(4) == 0
					s.DNSResponse = s.IsDNS && r.Intn(2) == 0
				}
				if got, want := px.add(&sp), model.add(&sp); got != want {
					t.Fatalf("seed %d step %d: add wrote %d entries, model %d", seed, step, got, want)
				}
			}
			if step%500 == 499 {
				check(step)
			}
		}
		check(3000)
		px.evictBelow(next)
		model.evictBelow(next)
		check(3001)
	}
}

// checkTailZero fails if a vacated slab row — one between the slab's
// length and its capacity — still holds anything.
func checkTailZero(t *testing.T, when string, sh *shard) {
	t.Helper()
	for i, sp := range sh.packets[len(sh.packets):cap(sh.packets)] {
		if !reflect.ValueOf(sp).IsZero() {
			t.Fatalf("%s: vacated slab row %d still holds packet %d (%d data bytes reachable)", when, len(sh.packets)+i, sp.ID, len(sp.Data))
		}
	}
}

// slabFrames is n distinct small frames a millisecond apart from the
// start-th millisecond on, so a time cut is also a count.
func slabFrames(start, n int) []traffic.Frame {
	frames := make([]traffic.Frame, n)
	for i := range frames {
		k := start + i
		frames[i] = traffic.Frame{TS: time.Duration(k) * time.Millisecond, Data: []byte{byte(k), byte(k >> 8), 0xab}}
	}
	return frames
}

// TestSlabEvictsInPlace: EvictBefore moves the survivors down inside the
// slab it has — same backing array, capacity kept for the refill — and
// zeroes the rows it vacated so no evicted packet's bytes stay reachable;
// a slab left under a quarter full gives the capacity back.
func TestSlabEvictsInPlace(t *testing.T) {
	s := NewSharded(1)
	if _, err := s.AddBatch(slabFrames(0, 1000), 1); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	full := cap(sh.packets)
	if full < 1000 || full > 2048 {
		t.Fatalf("slab of 1000 rows has capacity %d, want a doubling (1024)", full)
	}
	base := &sh.packets[:1][0]

	if n := s.EvictBefore(400 * time.Millisecond); n != 400 {
		t.Fatalf("evicted %d, want 400", n)
	}
	if cap(sh.packets) != full || &sh.packets[0] != base {
		t.Fatalf("evicting 400 of 1000 moved the slab (cap %d -> %d)", full, cap(sh.packets))
	}
	if len(sh.packets) != 600 || sh.packets[0].ID != 400 || sh.packets[599].ID != 999 {
		t.Fatalf("survivors: %d rows, IDs %d..%d", len(sh.packets), sh.packets[0].ID, sh.packets[len(sh.packets)-1].ID)
	}
	checkTailZero(t, "after EvictBefore", sh)

	// Refill into the kept capacity: no new slab.
	if _, err := s.AddBatch(slabFrames(1000, full-600), 1); err != nil {
		t.Fatal(err)
	}
	if cap(sh.packets) != full || &sh.packets[0] != base {
		t.Fatal("refilling the vacated rows reallocated the slab")
	}

	// Down to 100 of 1024: under a quarter, so the capacity is released.
	s.EvictBefore(sh.packets[len(sh.packets)-100].TS)
	if n := len(sh.packets); n == 0 || n >= full/4 {
		t.Fatalf("%d rows survive, want some but under %d", n, full/4)
	}
	if c := cap(sh.packets); c >= full || c < len(sh.packets) {
		t.Fatalf("slab at %d/%d rows after evicting to under a quarter of %d: capacity not released", len(sh.packets), c, full)
	}
	checkTailZero(t, "after shrinking", sh)
	if s.EvictBefore(time.Hour); sh.packets != nil {
		t.Fatalf("emptied slab keeps %d rows of capacity", cap(sh.packets))
	}
}

// TestSlabSealTrimsInPlace: the hot side of a seal (trimBelowID) evicts in
// place too, and the sealed rows stay readable from the cold tier.
func TestSlabSealTrimsInPlace(t *testing.T) {
	s := NewSharded(1)
	pol := aggressiveTier(t.TempDir())
	pol.HotPackets = 1 << 20 // seals happen only when the test asks
	if err := s.EnableTiering(pol); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddBatch(slabFrames(0, 1000), 1); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	full, base := cap(sh.packets), &sh.packets[:1][0]
	if n, err := s.sealHot(700); err != nil || n != 300 {
		t.Fatalf("SealHot: sealed %d, err %v", n, err)
	}
	if len(sh.packets) != 700 || cap(sh.packets) != full || &sh.packets[0] != base {
		t.Fatalf("seal trim left %d rows in a slab of %d (was %d)", len(sh.packets), cap(sh.packets), full)
	}
	checkTailZero(t, "after seal", sh)
	if sp, ok := s.Packet(5); !ok || len(sp.Data) != 3 || sp.Data[0] != 5 {
		t.Fatalf("sealed packet 5 unreadable after the trim: %+v %v", sp, ok)
	}
}

// TestAddBatchSteadyStateAllocs: a 2048-frame batch into a warmed store —
// its flows known, its scratch pooled, its slab and lists grown — costs a
// few amortised growth steps (flow packet lists, posting lists, the slab),
// never an allocation per frame. Measured 30 per batch (66 at the parent,
// which made the item array and the per-shard lists afresh each time); the
// budget leaves room for a pool emptied by a collection mid-run.
func TestAddBatchSteadyStateAllocs(t *testing.T) {
	frames := equivFrames(t)
	if len(frames) < 2048 {
		t.Fatalf("scenario has %d frames, want 2048", len(frames))
	}
	frames = frames[:2048]
	links := make([]uint16, len(frames))
	for i := range links {
		links[i] = uint16(i % 4)
	}
	s := NewSharded(4)
	add := func() {
		if r, err := s.AddBatchLinks(frames, links, 1); err != nil || r.Ingested != len(frames) {
			t.Fatalf("AddBatchLinks: %+v, %v", r, err)
		}
	}
	for i := 0; i < 6; i++ {
		add()
	}
	if raceEnabled {
		// The race detector makes sync.Pool drop Puts at random, so the
		// pooled scratch is reallocated at random and no budget holds.
		t.Log("alloc budget not checked under -race")
		return
	}
	if got := testing.AllocsPerRun(10, add); got > 48 {
		t.Errorf("%v allocations per warmed 2048-frame batch, budget 48", got)
	}
}

// TestEvictAfterEmptiedShardStillTrimsPostings: an eviction that empties a
// shard must leave the posting watermark at the last evicted ID + 1, not at
// the end of the ID space — otherwise every later eviction skips the
// posting lists, which then hold evicted IDs (and IndexBytes their 8 bytes
// each) for the life of the process. Answers are checked against the scan
// oracle at every step; the posting lists are checked entry for entry
// against the surviving packets.
func TestEvictAfterEmptiedShardStillTrimsPostings(t *testing.T) {
	frames := equivFrames(t)
	if raceEnabled { // every check is per packet; half the scenario keeps the race pass in budget
		frames = frames[:len(frames)/2]
	}
	s := NewSharded(4)
	if _, err := s.AddBatch(frames, 2); err != nil {
		t.Fatal(err)
	}
	checkQueries := func(when string) {
		t.Helper()
		for _, expr := range queryExprs {
			selectBoth(t, s, expr, 0)
		}
		// Every posting entry belongs to a packet still in its shard's slab.
		for i, sh := range s.shards {
			want := 0
			model := modelPostings{}
			for j := range sh.packets {
				want += model.add(&sh.packets[j])
			}
			got := 0
			everyRef(func(ref ixRef) { got += len(sh.index.lookup(ref)) })
			if got != want {
				t.Fatalf("%s: shard %d holds %d posting entries for %d packets owning %d", when, i, got, len(sh.packets), want)
			}
		}
	}
	checkQueries("after first ingest")

	if n := s.EvictBefore(time.Hour); n != len(frames) {
		t.Fatalf("evicted %d of %d", n, len(frames))
	}
	checkQueries("after emptying every shard")

	// The same traffic again, ten seconds later; then retire its first half.
	const shift = 10 * time.Second
	later := make([]traffic.Frame, len(frames))
	for i, f := range frames {
		later[i] = f
		later[i].TS += shift
	}
	if _, err := s.AddBatch(later, 2); err != nil {
		t.Fatal(err)
	}
	checkQueries("after re-ingest")
	cutTS := later[len(later)/2].TS
	evictedEntries := 0
	model := modelPostings{}
	for _, sp := range s.Select(MustFilter("ts >= 0s"), 0) {
		if sp.TS < cutTS {
			evictedEntries += model.add(&sp)
		}
	}
	before := s.Stats().IndexBytes
	n := s.EvictBefore(cutTS)
	if n == 0 || n == len(later) {
		t.Fatalf("evicted %d of %d, want a proper part", n, len(later))
	}
	if got, want := before-s.Stats().IndexBytes, 8*uint64(evictedEntries); got != want {
		t.Fatalf("evicting %d packets released %d index bytes, want %d (8 per posting entry)", n, got, want)
	}
	checkQueries("after evicting half")
}

// synFrame is one TCP SYN from src:sport to 93.184.216.34:443 at ts.
func synFrame(t testing.TB, src netip.Addr, sport uint16, ts time.Duration) traffic.Frame {
	return traffic.Frame{TS: ts, Data: serializeFrame(t, []byte("slab"),
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{TTL: 64, Protocol: packet.IPProtocolTCP, SrcIP: src, DstIP: netip.MustParseAddr("93.184.216.34")},
		&packet.TCP{SrcPort: sport, DstPort: 443, Flags: packet.TCPSyn},
	)}
}

// TestFlowSlabWindowsStayApart: a new flow's FlowMeta and its first two
// packet IDs are cut from per-shard slabs, so two flows created one after
// the other keep their ID lists side by side in one backing array. Each
// list grows past its window, is trimmed in place by an eviction and grows
// again, then goes through a checkpoint and a recovery at another shard
// count; after every step Flows() and every PacketIDs() list must equal a
// model that knows nothing of slabs.
func TestFlowSlabWindowsStayApart(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Recover(DurableConfig{Dir: dir, Fsync: FsyncNone, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	type flowModel struct {
		ids         []PacketID
		first, last time.Duration
		pkts, bytes uint64
	}
	model := map[FlowKey]*flowModel{}
	tsOf := map[PacketID]time.Duration{}
	hosts := map[string]FlowKey{}
	var ts time.Duration
	add := func(host string) {
		t.Helper()
		ts += time.Millisecond
		f := synFrame(t, netip.MustParseAddr(host), 1000, ts)
		id, err := st.AddBatch([]traffic.Frame{f}, 1)
		if err != nil {
			t.Fatal(err)
		}
		var s packet.Summary
		if err := packet.NewFlowParser().Parse(f.Data, &s); err != nil {
			t.Fatal(err)
		}
		key := s.Tuple.Canonical()
		hosts[host] = key
		m := model[key]
		if m == nil {
			m = &flowModel{first: ts}
			model[key] = m
		}
		m.ids = append(m.ids, id)
		m.last, m.pkts, m.bytes = ts, m.pkts+1, m.bytes+uint64(len(f.Data))
		tsOf[id] = ts
	}
	check := func(when string) {
		t.Helper()
		got := st.Flows()
		if len(got) != len(model) {
			t.Fatalf("%s: %d flows, model has %d", when, len(got), len(model))
		}
		for i := range got {
			fm := &got[i]
			m := model[fm.Key]
			if m == nil {
				t.Fatalf("%s: flow %v is not in the model", when, fm.Key)
			}
			if fm.First != m.first || fm.Last != m.last || fm.Packets != m.pkts || fm.Bytes != m.bytes ||
				!slices.Equal(fm.PacketIDs(), m.ids) {
				t.Fatalf("%s: flow %v: first %v last %v packets %d bytes %d IDs %v, model %+v",
					when, fm.Key, fm.First, fm.Last, fm.Packets, fm.Bytes, fm.PacketIDs(), *m)
			}
			live, ok := st.Flow(fm.Key)
			if !ok || !slices.Equal(live.PacketIDs(), m.ids) {
				t.Fatalf("%s: Flow(%v) IDs %v, model %v", when, fm.Key, live.PacketIDs(), m.ids)
			}
		}
	}

	add("10.0.0.1") // A's window, then B's right after it
	add("10.0.0.2")
	sh := st.shards[0]
	a, b := sh.flows[hosts["10.0.0.1"]].pktIDs, sh.flows[hosts["10.0.0.2"]].pktIDs
	if cap(a) != 2 || cap(b) != 2 || unsafe.SliceData(b) != (*PacketID)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), 2*unsafe.Sizeof(PacketID(0)))) {
		t.Fatalf("the two flows' first IDs are not adjacent windows of one ID slab (caps %d, %d)", cap(a), cap(b))
	}
	check("two new flows")
	add("10.0.0.1") // both windows full
	add("10.0.0.2")
	check("both windows full")
	add("10.0.0.1") // A outgrows its window; B's is unchanged
	check("A past its window")

	// Evict below B's first packet: A's first ID goes, and A's list is
	// trimmed in place.
	cut := tsOf[model[hosts["10.0.0.2"]].ids[0]]
	if n := st.EvictBefore(cut); n != 1 {
		t.Fatalf("evicted %d packets, want 1", n)
	}
	for _, m := range model {
		if m.first < cut {
			m.ids = slices.DeleteFunc(m.ids, func(id PacketID) bool { return tsOf[id] < cut })
		}
	}
	check("after evicting A's first packet")
	add("10.0.0.2") // B outgrows its window
	add("10.0.0.1")
	add("10.0.0.3") // C's window follows B's
	add("10.0.0.3")
	add("10.0.0.2")
	check("more packets after the eviction")

	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	add("10.0.0.3")
	add("10.0.0.4")
	check("packets after the checkpoint")
	st.CloseWAL()
	if st, _, err = Recover(DurableConfig{Dir: dir, Fsync: FsyncNone, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	defer st.CloseWAL()
	check("recovered at 4 shards")
	add("10.0.0.1")
	add("10.0.0.4")
	add("10.0.0.5")
	check("packets after the recovery")
}

// TestAddBatchNewFlowsAllocs: a 2048-packet batch of single-packet flows —
// a spoofed-source SYN flood, every packet a new flow — takes its flows'
// metadata and first ID windows from the shard slabs, so it costs a few
// dozen amortised growth steps (slabs, flow maps, posting lists), not the
// two allocations per flow (a FlowMeta and its ID list) it took before.
func TestAddBatchNewFlowsAllocs(t *testing.T) {
	const batch = 2048
	tmpl := synFrame(t, netip.MustParseAddr("10.0.0.0"), 1000, 0)
	next := 0
	flood := func() []traffic.Frame {
		frames := make([]traffic.Frame, batch)
		for i := range frames {
			next++
			data := slices.Clone(tmpl.Data)
			data[14+12], data[14+13], data[14+14], data[14+15] = 10, byte(next>>16), byte(next>>8), byte(next)
			frames[i] = traffic.Frame{TS: time.Duration(next) * time.Microsecond, Data: data}
		}
		return frames
	}
	const warm, runs = 4, 10
	batches := make([][]traffic.Frame, warm+runs+1)
	for i := range batches {
		batches[i] = flood()
	}
	s := NewSharded(4)
	add := func() {
		fs := batches[0]
		batches = batches[1:]
		if r, err := s.AddBatchAdmit(fs, 1); err != nil || r.Ingested != batch {
			t.Fatalf("AddBatchAdmit: %+v, %v", r, err)
		}
	}
	for range warm {
		add()
	}
	if raceEnabled {
		// The race detector makes sync.Pool drop Puts at random, so the
		// pooled scratch is reallocated at random and no budget holds.
		t.Log("alloc budget not checked under -race")
		return
	}
	got := testing.AllocsPerRun(runs, add)
	if got > 256 {
		t.Errorf("%v allocations per 2048-flow batch, budget 256", got)
	}
	if n := s.Stats().Flows; n != uint64((warm+runs+1)*batch) {
		t.Fatalf("%d flows, want one per packet", n)
	}
	t.Logf("%v allocations per 2048-flow batch", got)
}
