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

// ixKind names a posting-list family. The value families come first, so
// kind-1 is a value family's row in valueKeys and its index in every
// per-family array (hot postings, segment postings, zone maps).
type ixKind uint8

const (
	ixNone ixKind = iota
	ixProto
	ixSrcPort
	ixDstPort
	ixLink
	ixLabel
	ixFlag // ixVal is a flag id, a row of flagKeys

	numFams  = int(ixFlag) - 1
	numFlags = 6
)

// The key table: everything a packet is indexed under, stated once — the
// two name tables and the two field lists (keyVal, keyFlags) below. Hot postings, the cold
// index column and the link/label codes built from it, zone maps and the filter compiler all read them,
// so an indexed field is one row and one field. Order is the segment
// format's: the index column stores the value families, then the flag
// lists, in it.

// valueKeys are the value families, indexed by ixKind-1: the filter field
// and the inclusive bound of its domain.
var valueKeys = [numFams]struct {
	name string
	max  uint64
}{{"proto", 0xff}, {"src.port", 0xffff}, {"dst.port", 0xffff}, {"link", 0xffff}, {"label", 0xff}}

// flagKeys are the boolean families' bare filter fields, indexed by flag id
// (ixFlag's ixVal domain).
var flagKeys = [numFlags]string{"ip", "tcp", "udp", "icmp", "dns", "dns.resp"}

// keyVal is sp's value in one value family. Every packet has one in every
// family — non-IP packets proto/port 0 — so equality against any value,
// zero included, is exactly answerable from the index. A switch, not an
// array of all five, which cost postings.add a quarter more (DESIGN §11).
func keyVal(sp *StoredPacket, kind ixKind) uint16 {
	switch kind {
	case ixProto:
		return uint16(sp.Summary.Tuple.Proto)
	case ixSrcPort:
		return sp.Summary.Tuple.SrcPort
	case ixDstPort:
		return sp.Summary.Tuple.DstPort
	case ixLink:
		return sp.Link
	}
	return uint16(sp.Label)
}

// keyFlags is whether sp has each flag, in flagKeys order.
func keyFlags(sp *StoredPacket) [numFlags]bool {
	s := &sp.Summary
	return [numFlags]bool{s.HasIP, s.HasTCP, s.HasUDP, s.HasICMP, s.IsDNS, s.DNSResponse}
}

// ixRef names one posting list: a family plus the value within it.
type ixRef struct {
	kind ixKind
	val  uint64
}

// inDomain reports whether any packet could be indexed under ref. A value
// outside its family's domain names a provably empty list — still exact:
// no packet can match such an equality.
func (ref ixRef) inDomain() bool {
	if ref.kind == ixFlag {
		return ref.val < numFlags
	}
	fi := int(ref.kind) - 1
	return fi >= 0 && fi < numFams && ref.val <= valueKeys[fi].max
}

// postings is one shard's secondary index. All access is guarded by the
// shard lock (writes under the write lock in apply/evict, reads under the
// read lock during queries). Every family is addressed by its value — a
// page-table walk — never hashed.
type postings struct {
	fams  [numFams]pageTable
	flags [numFlags][]PacketID
	// evictedBelow is the highest minID a completed evictBelow has
	// processed. Every list is already free of IDs below it, so repeat
	// calls at or below the watermark skip the full-index walk — the
	// common case when eviction or sealing runs on a cadence but the
	// cutoff only sometimes advances.
	evictedBelow PacketID
}

func newPostings() *postings { return new(postings) }

// pageTable maps a 16-bit value to its posting list in two steps: the high
// byte picks a page (made on first use), the low byte a slot holding a
// 1-based handle into lists (0 = the value has no list). A slot is 4 bytes
// on purpose: a page of slice headers is 6 KB, and a shard that has seen a
// few ports on every page would carry 1.5 MB of them per family.
type pageTable struct {
	pages [256]*[256]uint32
	lists [][]PacketID
}

// get returns v's posting list, nil when v has none.
func (t *pageTable) get(v uint16) []PacketID {
	if pg := t.pages[v>>8]; pg != nil && pg[v&0xff] != 0 {
		return t.lists[pg[v&0xff]-1]
	}
	return nil
}

// slot returns the place v's posting list is kept, making the page and the
// handle on first use. The pointer is good until the next slot call.
func (t *pageTable) slot(v uint16) *[]PacketID {
	pg := t.pages[v>>8]
	if pg == nil {
		pg = new([256]uint32)
		t.pages[v>>8] = pg
	}
	if pg[v&0xff] == 0 {
		t.lists = append(t.lists, nil)
		pg[v&0xff] = uint32(len(t.lists))
	}
	return &t.lists[pg[v&0xff]-1]
}

// trimLists drops the entries with ID < minID from each sorted list in
// place, returning the number removed.
func trimLists(lists [][]PacketID, minID PacketID) (removed int) {
	for i, ids := range lists {
		cut := sort.Search(len(ids), func(i int) bool { return ids[i] >= minID })
		if cut > 0 {
			removed += cut
			lists[i] = dropPrefix(ids, cut)
		}
	}
	return removed
}

// insertID adds id to a posting list by appending it: the ingest section
// applies a shard's rows in ascending ID order, so the append keeps the
// list sorted. A list's first entry reserves room for four: most lists of
// a scan or a flood stay that short, and 1→2→4 growth was three
// allocations each.
func insertID(ids []PacketID, id PacketID) []PacketID {
	if cap(ids) == 0 {
		ids = make([]PacketID, 0, 4)
	}
	return append(ids, id)
}

// add indexes one stored packet under keyVal and keyFlags, returning the
// number of posting entries written (for index-size accounting). The
// families are written out, lookups before inserts, where lookup and
// evictBelow loop: as a loop this cost fleet_stream 3–5% (DESIGN §11).
func (px *postings) add(sp *StoredPacket) int {
	slot := func(kind ixKind) *[]PacketID { return px.fams[kind-1].slot(keyVal(sp, kind)) }
	proto, label := slot(ixProto), slot(ixLabel)
	*proto, *label = insertID(*proto, sp.ID), insertID(*label, sp.ID)
	src, dst, link := slot(ixSrcPort), slot(ixDstPort), slot(ixLink)
	*src, *dst, *link = insertID(*src, sp.ID), insertID(*dst, sp.ID), insertID(*link, sp.ID)
	entries, flags := numFams, keyFlags(sp)
	for fl := range px.flags {
		if flags[fl] {
			px.flags[fl] = insertID(px.flags[fl], sp.ID)
			entries++
		}
	}
	return entries
}

// lookup returns the posting list for ref, nil when the value has no
// packets.
func (px *postings) lookup(ref ixRef) []PacketID {
	switch {
	case !ref.inDomain():
		return nil
	case ref.kind == ixFlag:
		return px.flags[ref.val]
	}
	return px.fams[ref.kind-1].get(uint16(ref.val))
}

// evictBelow drops all posting entries with ID < minID (retention eviction
// removes a prefix of the slab, which is a prefix by ID too). Returns the
// number of entries removed. A value whose list empties keeps its page-table
// handle (one nil slice header).
func (px *postings) evictBelow(minID PacketID) int {
	if minID <= px.evictedBelow {
		return 0
	}
	px.evictedBelow = minID
	removed := trimLists(px.flags[:], minID)
	for fi := range px.fams {
		removed += trimLists(px.fams[fi].lists, minID)
	}
	return removed
}

// clip restricts a sorted list — posting IDs in a shard, row positions in a
// segment — to the half-open interval [lo, hi) with two binary searches;
// hi <= lo is the empty interval.
func clip[T ~uint32 | ~uint64](list []T, lo, hi T) []T {
	list = list[sort.Search(len(list), func(i int) bool { return list[i] >= lo }):]
	return list[:sort.Search(len(list), func(i int) bool { return list[i] >= hi })]
}

// intersect intersects already-clipped sorted lists. lists must be
// non-empty; the caller passes the shortest list first so the candidate
// set only ever shrinks. A single list is returned as is — a view, not a
// copy, which is why a one-key Count allocates nothing: the caller must not
// write it, nor keep it past the lock that guards the index it came from.
func intersect[T ~uint32 | ~uint64](lists [][]T) []T {
	if len(lists) == 1 {
		return lists[0]
	}
	out := append([]T(nil), lists[0]...)
	for _, other := range lists[1:] {
		if len(out) == 0 {
			return out
		}
		kept := out[:0]
		j := 0
		for _, v := range out {
			// Galloping search: the lists are sorted, so advance a monotone
			// cursor into the larger one.
			j += sort.Search(len(other)-j, func(k int) bool { return other[j+k] >= v })
			if j == len(other) {
				break
			}
			if other[j] == v {
				kept = append(kept, v)
				j++
			}
		}
		out = kept
	}
	return out
}
