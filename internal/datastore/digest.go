package datastore

import (
	"encoding/binary"
	"hash/fnv"

	"campuslab/internal/traffic"
)

// "The same store" has one definition: the same public surface, walked by
// surface in one fixed order. Digest hashes it (a reproduction compares two
// digests); the package's tests walk it to name the first item that
// differs.

// surface hands f every item of the store's public surface, each tagged
// with its section and encoded canonically, in this order:
//
//	row     per Scan row, hot and cold: ID, TS, link, label, actor, bytes
//	flow    per Flows() aggregate, in listing order (the checkpoint's record)
//	label   per LabelCounts class, in label order: label, count
//	packets Stats packets plus cold packets
//	event   per event, in time order (the checkpoint's record)
//	ids     the next packet ID and the TS watermark: what a later ingest
//	        is numbered and clamped by
//
// item is reused between calls; f copies what it keeps. Walk a quiescent
// store: the sections are read one after another, not under one lock.
func (s *Store) surface(f func(section string, item []byte)) {
	le := binary.LittleEndian
	var b []byte
	s.Scan(func(sp *StoredPacket) bool {
		b = le.AppendUint64(b[:0], uint64(sp.ID))
		b = le.AppendUint64(b, uint64(sp.TS))
		b = le.AppendUint16(b, sp.Link)
		b = append(append(b, byte(sp.Label), boolByte(sp.Actor)), sp.Data...)
		f("row", b)
		return true
	})
	for _, fm := range s.Flows() {
		f("flow", appendFlow(b[:0], &fm))
	}
	counts := s.LabelCounts()
	for l := range 1 << 8 {
		if n, ok := counts[traffic.Label(l)]; ok {
			f("label", le.AppendUint64(append(b[:0], byte(l)), uint64(n)))
		}
	}
	st := s.Stats()
	f("packets", le.AppendUint64(b[:0], st.Packets+st.ColdPackets))
	s.eventsMu.RLock()
	for i := range s.events {
		f("event", appendEvent(b[:0], &s.events[i]))
	}
	s.eventsMu.RUnlock()
	f("ids", le.AppendUint64(le.AppendUint64(b[:0], s.nextID.Load()), uint64(s.lastTS.Load())))
}

// Digest is a 128-bit FNV-1a hash of the store's public surface: every Scan
// row with its bytes, the flow aggregates, the label counts, the packet
// total, the events, and the next packet ID and TS watermark. Two stores
// with one digest answer every query alike and number a later ingest alike,
// at any shard count and on either side of a seal. It detects divergence,
// not tampering: FNV is not a cryptographic hash (with crypto/sha256 linked
// into the store, collect_tiered ran 6 % slower on 2 vCPUs). Take it of a
// quiescent store.
func (s *Store) Digest() [16]byte {
	h := fnv.New128a()
	var hdr []byte
	s.surface(func(section string, item []byte) {
		hdr = binary.LittleEndian.AppendUint64(append(append(hdr[:0], section...), 0), uint64(len(item)))
		h.Write(hdr)
		h.Write(item)
	})
	return [16]byte(h.Sum(nil))
}
