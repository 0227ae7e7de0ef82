package datastore

import "sort"

// Secondary indexes for the query engine: each shard maintains posting
// lists — sorted PacketID slices — over the low-cardinality fields the
// filter language can equality-match (protocol, transport ports, link,
// packet label) plus the boolean summary flags. Lists are maintained
// incrementally at ingest, trimmed by retention eviction, and rebuilt for
// free when a snapshot loads (Load re-ingests every packet).
//
// The invariant the planner relies on: a posting list holds *exactly* the
// shard's packets for which the corresponding filter leaf is true, in
// ascending ID order. Within a shard the packet slab is ascending in both
// TS and ID, so an ID interval is also a position interval and a time
// interval — which is what lets the planner clip posting lists to a
// query's time bounds with two binary searches.

// ixKind names a posting-list family.
type ixKind uint8

const (
	ixNone ixKind = iota
	ixProto
	ixSrcPort
	ixDstPort
	ixLink
	ixLabel
	ixFlag // ixVal is one of the flag ids below
)

// Flag posting-list ids (ixFlag's ixVal domain).
const (
	flagIP = iota
	flagTCP
	flagUDP
	flagICMP
	flagDNS
	flagDNSResp
	numFlags
)

// ixRef names one posting list: a family plus the value within it.
type ixRef struct {
	kind ixKind
	val  uint64
}

// postings is one shard's secondary index. All access is guarded by the
// shard lock (writes under the write lock in apply/evict, reads under the
// read lock during queries).
type postings struct {
	proto   map[uint8][]PacketID
	srcPort map[uint16][]PacketID
	dstPort map[uint16][]PacketID
	link    map[uint16][]PacketID
	label   map[uint8][]PacketID
	flags   [numFlags][]PacketID
	// evictedBelow is the highest minID a completed evictBelow has
	// processed. Every list is already free of IDs below it, so repeat
	// calls at or below the watermark skip the full-index walk — the
	// common case when eviction or sealing runs on a cadence but the
	// cutoff only sometimes advances.
	evictedBelow PacketID
}

func newPostings() *postings {
	return &postings{
		proto:   make(map[uint8][]PacketID),
		srcPort: make(map[uint16][]PacketID),
		dstPort: make(map[uint16][]PacketID),
		link:    make(map[uint16][]PacketID),
		label:   make(map[uint8][]PacketID),
	}
}

// insertID adds id to a sorted posting list. The fast path is an append
// (batched ingest applies packets in ascending ID order); concurrent
// single-packet ingest can interleave IDs, in which case the ID is
// insert-sorted exactly like the slab and per-flow lists.
func insertID(ids []PacketID, id PacketID) []PacketID {
	if n := len(ids); n == 0 || id > ids[n-1] {
		return append(ids, id)
	}
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// add indexes one stored packet, returning the number of posting entries
// written (for index-size accounting). Every packet lands in the five
// value families — non-IP packets under proto/port 0 — so that equality
// against any value, including zero, is exactly answerable from the index.
func (px *postings) add(sp *StoredPacket) int {
	px.proto[uint8(sp.Summary.Tuple.Proto)] = insertID(px.proto[uint8(sp.Summary.Tuple.Proto)], sp.ID)
	px.srcPort[sp.Summary.Tuple.SrcPort] = insertID(px.srcPort[sp.Summary.Tuple.SrcPort], sp.ID)
	px.dstPort[sp.Summary.Tuple.DstPort] = insertID(px.dstPort[sp.Summary.Tuple.DstPort], sp.ID)
	px.link[sp.Link] = insertID(px.link[sp.Link], sp.ID)
	px.label[uint8(sp.Label)] = insertID(px.label[uint8(sp.Label)], sp.ID)
	entries := 5
	for fl, on := range [numFlags]bool{
		flagIP:      sp.Summary.HasIP,
		flagTCP:     sp.Summary.HasTCP,
		flagUDP:     sp.Summary.HasUDP,
		flagICMP:    sp.Summary.HasICMP,
		flagDNS:     sp.Summary.IsDNS,
		flagDNSResp: sp.Summary.DNSResponse,
	} {
		if on {
			px.flags[fl] = insertID(px.flags[fl], sp.ID)
			entries++
		}
	}
	return entries
}

// lookup returns the posting list for ref, nil when the value has no
// packets (or lies outside the field's domain — still exact: no packet
// can match such an equality).
func (px *postings) lookup(ref ixRef) []PacketID {
	switch ref.kind {
	case ixProto:
		if ref.val > 0xff {
			return nil
		}
		return px.proto[uint8(ref.val)]
	case ixSrcPort:
		if ref.val > 0xffff {
			return nil
		}
		return px.srcPort[uint16(ref.val)]
	case ixDstPort:
		if ref.val > 0xffff {
			return nil
		}
		return px.dstPort[uint16(ref.val)]
	case ixLink:
		if ref.val > 0xffff {
			return nil
		}
		return px.link[uint16(ref.val)]
	case ixLabel:
		if ref.val > 0xff {
			return nil
		}
		return px.label[uint8(ref.val)]
	case ixFlag:
		if ref.val >= numFlags {
			return nil
		}
		return px.flags[ref.val]
	}
	return nil
}

// evictBelow drops all posting entries with ID < minID (retention eviction
// removes a prefix of the slab, which is a prefix by ID too). Returns the
// number of entries removed.
func (px *postings) evictBelow(minID PacketID) int {
	if minID <= px.evictedBelow {
		return 0
	}
	px.evictedBelow = minID
	removed := 0
	trim := func(ids []PacketID) []PacketID {
		cut := sort.Search(len(ids), func(i int) bool { return ids[i] >= minID })
		if cut == 0 {
			return ids
		}
		removed += cut
		if cut == len(ids) {
			return nil
		}
		return append(ids[:0:0], ids[cut:]...)
	}
	for k, ids := range px.proto {
		if out := trim(ids); out == nil {
			delete(px.proto, k)
		} else {
			px.proto[k] = out
		}
	}
	for k, ids := range px.srcPort {
		if out := trim(ids); out == nil {
			delete(px.srcPort, k)
		} else {
			px.srcPort[k] = out
		}
	}
	for k, ids := range px.dstPort {
		if out := trim(ids); out == nil {
			delete(px.dstPort, k)
		} else {
			px.dstPort[k] = out
		}
	}
	for k, ids := range px.link {
		if out := trim(ids); out == nil {
			delete(px.link, k)
		} else {
			px.link[k] = out
		}
	}
	for k, ids := range px.label {
		if out := trim(ids); out == nil {
			delete(px.label, k)
		} else {
			px.label[k] = out
		}
	}
	for fl := range px.flags {
		px.flags[fl] = trim(px.flags[fl])
	}
	return removed
}

// clipRows restricts a sorted segment row list to the half-open row
// interval [lo, hi) with two binary searches — the row-position analogue
// of clipIDs for cold segments, where a TS window is a row interval.
func clipRows(rows []uint32, lo, hi uint32) []uint32 {
	a := sort.Search(len(rows), func(i int) bool { return rows[i] >= lo })
	b := sort.Search(len(rows), func(i int) bool { return rows[i] >= hi })
	return rows[a:b]
}

// intersectRows intersects already-clipped sorted row lists, shortest
// first, with the same galloping cursor as intersectPostings. A single
// list is returned as is — segment posting slabs are immutable, so a view
// is as good as a copy and a one-key Count allocates nothing.
func intersectRows(lists [][]uint32) []uint32 {
	if len(lists) == 1 {
		return lists[0]
	}
	out := append([]uint32(nil), lists[0]...)
	for _, other := range lists[1:] {
		if len(out) == 0 {
			return out
		}
		kept := out[:0]
		j := 0
		for _, r := range out {
			j += sort.Search(len(other)-j, func(k int) bool { return other[j+k] >= r })
			if j == len(other) {
				break
			}
			if other[j] == r {
				kept = append(kept, r)
				j++
			}
		}
		out = kept
	}
	return out
}

// clipIDs restricts a sorted posting list to the half-open ID interval
// [lo, hi) with two binary searches.
func clipIDs(ids []PacketID, lo, hi PacketID) []PacketID {
	a := sort.Search(len(ids), func(i int) bool { return ids[i] >= lo })
	b := sort.Search(len(ids), func(i int) bool { return ids[i] >= hi })
	return ids[a:b]
}

// intersectPostings intersects already-clipped sorted lists. lists must be
// non-empty; the caller passes the shortest list first so the candidate
// set only ever shrinks. The result is a fresh slice (never a view into
// the live index).
func intersectPostings(lists [][]PacketID) []PacketID {
	out := append([]PacketID(nil), lists[0]...)
	for _, other := range lists[1:] {
		if len(out) == 0 {
			return out
		}
		kept := out[:0]
		j := 0
		for _, id := range out {
			// Galloping search: posting lists are sorted, so advance a
			// monotone cursor into the larger list.
			j += sort.Search(len(other)-j, func(k int) bool { return other[j+k] >= id })
			if j == len(other) {
				break
			}
			if other[j] == id {
				kept = append(kept, id)
				j++
			}
		}
		out = kept
	}
	return out
}
