package datastore

import (
	"encoding/binary"
	"net/netip"
	"unsafe"

	"campuslab/internal/deflate"
	"campuslab/internal/frame"
	"campuslab/internal/inflate"
	"campuslab/internal/packet"
)

// The summary column (7) holds each row's packet.Summary — what
// FlowParser.Parse produced for the frame at ingest — so that a cold row's
// header fields are read rather than re-parsed out of an inflated frame.
// Rows are cut into segStripeRows-row stripes, each one DEFLATE stream
// with its own CRC, which a cursor decodes on first use into a
// []packet.Summary that the tier cache keeps under the shared budget.
//
//	column:  uvarint stripe rows | uvarint stripe count | per stripe:
//	         uvarint raw length, uvarint stream length, crc32 of the
//	         stream (u32) | the streams, concatenated
//	stripe:  uvarint entry count | the entries, field by field: shapes,
//	         protos, TTLs, source addresses, destination addresses (4 or
//	         16 bytes each, or none, by shape), source ports, destination
//	         ports (u16 each) | per row: uvarint entry index+1, or 0
//	         for the next entry not yet used | per row: the TCP flags
//	         byte | per row: zigzag(frame length-WireLen) | per row:
//	         zigzag(WireLen-14-IPLen) | per row: zigzag(IPLen-PayloadLen) |
//	         per DNS row: query type, answer count,
//	         zigzag(PayloadLen-DNSMsgLen)
//
// An entry is what the packets of one flow direction share, listed in
// first-use order; laid out field by field, an attack's entries that
// differ only in a spoofed source still share their other fields' runs. Each length is stored as its difference from what the
// one before it implies — WireLen from the frame's length, which the data
// column records and Parse copies; IPLen and PayloadLen from an
// Ethernet/IPv4 frame without padding or options — so ordinary traffic
// gives runs of small equal numbers that DEFLATE all but removes (~2 B per
// row in all).
//
// The encoder refuses a summary Parse cannot produce (mixed or zoned
// addresses, a length out of range, DNS fields on a non-DNS row), and the
// decoder refuses the same, so a decoded summary always re-encodes.

const (
	segColSummary = 5
	// segStripeRows is the writer's rows per summary stripe: a narrow
	// window touches one or two, and a flow's entry is shared by many.
	segStripeRows = 1024
	// sumMaxIPLen bounds IPLen: an IPv6 header plus the largest payload
	// length its 16-bit field holds (IPv4's total length is below it).
	sumMaxIPLen = 40 + 0xffff
	// sumMaxDelta bounds a stored difference, which keeps the arithmetic
	// that undoes it far from overflow.
	sumMaxDelta = 1 << 30
)

// Shape bits: the summary's booleans, then how its addresses are stored.
const (
	shapeIP = 1 << iota
	shapeTCP
	shapeUDP
	shapeICMP
	shapeDNS
	shapeDNSResp
	shapeAddr4 // both addresses IPv4, 4 bytes each
	shapeAddr6 // both addresses IPv6, 16 bytes each (neither bit: none)
)

// summaryBytes is one decoded summary's footprint, for the cache budget.
const summaryBytes = int64(unsafe.Sizeof(packet.Summary{}))

// sumEntry is one stripe entry: the fields a flow direction's packets
// share.
type sumEntry struct {
	shape, proto, ttl byte
	src, dst          netip.Addr
	sport, dport      uint16
}

func b2shape(b bool, bit byte) byte {
	if b {
		return bit
	}
	return 0
}

// entryOf returns s's entry, refusing addresses Parse does not produce.
func entryOf(s *packet.Summary) (sumEntry, error) {
	t := &s.Tuple
	e := sumEntry{
		shape: b2shape(s.HasIP, shapeIP) | b2shape(s.HasTCP, shapeTCP) | b2shape(s.HasUDP, shapeUDP) |
			b2shape(s.HasICMP, shapeICMP) | b2shape(s.IsDNS, shapeDNS) | b2shape(s.DNSResponse, shapeDNSResp),
		proto: byte(t.Proto), ttl: s.TTL, src: t.SrcIP, dst: t.DstIP, sport: t.SrcPort, dport: t.DstPort,
	}
	switch {
	case !t.SrcIP.IsValid() && !t.DstIP.IsValid():
	case t.SrcIP.Is4() && t.DstIP.Is4():
		e.shape |= shapeAddr4
	case t.SrcIP.Is6() && t.DstIP.Is6() && t.SrcIP.Zone() == "" && t.DstIP.Zone() == "":
		e.shape |= shapeAddr6
	default:
		return e, segErr("summary addresses %v, %v are not a parsed header's", t.SrcIP, t.DstIP)
	}
	return e, nil
}

// stripeEnc is one encoder's scratch, reused across its stripes.
type stripeEnc struct {
	idx                               map[sumEntry]uint32
	ents                              []sumEntry
	refs, flags, wire, ipl, pay, dnsb []byte
	raw                               []byte
}

func appendZigzag(b []byte, v int) []byte { return binary.AppendUvarint(b, zigzag(int64(v))) }

// stripe builds the raw (not yet compressed) stripe of rows into e.raw.
func (e *stripeEnc) stripe(rows []StoredPacket) error {
	clear(e.idx)
	e.ents = e.ents[:0]
	for _, part := range []*[]byte{&e.refs, &e.flags, &e.wire, &e.ipl, &e.pay, &e.dnsb} {
		*part = (*part)[:0]
	}
	for i := range rows {
		s := &rows[i].Summary
		if s.WireLen < 0 || s.WireLen > segMaxPacket || s.IPLen < 0 || s.IPLen > sumMaxIPLen || s.PayloadLen < 0 || s.PayloadLen > s.WireLen {
			return segErr("row %d summary lengths (%d, %d, %d) out of range", i, s.WireLen, s.IPLen, s.PayloadLen)
		}
		ent, err := entryOf(s)
		if err != nil {
			return err
		}
		// A row names its entry as index+1, or 0 for the next new one, so
		// a stripe of one-packet flows codes as zeros.
		ref := uint32(0)
		if code, ok := e.idx[ent]; ok {
			ref = code + 1
		} else {
			e.idx[ent] = uint32(len(e.ents))
			e.ents = append(e.ents, ent)
		}
		e.refs = binary.AppendUvarint(e.refs, uint64(ref))
		e.flags = append(e.flags, byte(s.TCPFlags))
		e.wire = appendZigzag(e.wire, len(rows[i].Data)-s.WireLen)
		e.ipl = appendZigzag(e.ipl, s.WireLen-14-s.IPLen)
		e.pay = appendZigzag(e.pay, s.IPLen-s.PayloadLen)
		switch {
		case s.IsDNS:
			if s.DNSAnswerCnt < 0 || s.DNSAnswerCnt > 0xffff || s.DNSMsgLen < 0 || s.DNSMsgLen > s.PayloadLen {
				return segErr("row %d DNS fields (%d answers, %d bytes) out of range", i, s.DNSAnswerCnt, s.DNSMsgLen)
			}
			e.dnsb = binary.AppendUvarint(e.dnsb, uint64(s.DNSQueryType))
			e.dnsb = binary.AppendUvarint(e.dnsb, uint64(s.DNSAnswerCnt))
			e.dnsb = appendZigzag(e.dnsb, s.PayloadLen-s.DNSMsgLen)
		case s.DNSQueryType != 0 || s.DNSAnswerCnt != 0 || s.DNSMsgLen != 0:
			return segErr("row %d has DNS fields but is not DNS", i)
		}
	}
	e.raw = binary.AppendUvarint(e.raw[:0], uint64(len(e.ents)))
	for _, ent := range e.ents {
		e.raw = append(e.raw, ent.shape)
	}
	for _, ent := range e.ents {
		e.raw = append(e.raw, ent.proto)
	}
	for _, ent := range e.ents {
		e.raw = append(e.raw, ent.ttl)
	}
	for _, src := range [2]bool{true, false} {
		for _, ent := range e.ents {
			a := ent.dst
			if src {
				a = ent.src
			}
			switch ent.shape & (shapeAddr4 | shapeAddr6) {
			case shapeAddr4:
				a4 := a.As4()
				e.raw = append(e.raw, a4[:]...)
			case shapeAddr6:
				a16 := a.As16()
				e.raw = append(e.raw, a16[:]...)
			}
		}
	}
	for _, ent := range e.ents {
		e.raw = binary.LittleEndian.AppendUint16(e.raw, ent.sport)
	}
	for _, ent := range e.ents {
		e.raw = binary.LittleEndian.AppendUint16(e.raw, ent.dport)
	}
	for _, part := range [][]byte{e.refs, e.flags, e.wire, e.ipl, e.pay, e.dnsb} {
		e.raw = append(e.raw, part...)
	}
	return nil
}

// encodeSummaries serializes the summary column of a row run.
func encodeSummaries(rows []StoredPacket) ([]byte, error) {
	nstripes := (len(rows) + segStripeRows - 1) / segStripeRows
	head := binary.AppendUvarint(make([]byte, 0, 2*binary.MaxVarintLen64+14*nstripes), segStripeRows)
	head = binary.AppendUvarint(head, uint64(nstripes))
	// Sized once for ordinary traffic (a few bytes a row); a stripe of
	// spoofed sources grows them once.
	n := min(len(rows), segStripeRows)
	scratch := make([]byte, 12*n)
	e := &stripeEnc{
		idx: make(map[sumEntry]uint32, n/8), ents: make([]sumEntry, 0, n/8),
		refs: scratch[: 0 : 2*n], flags: scratch[2*n : 2*n : 3*n], wire: scratch[3*n : 3*n : 4*n],
		ipl: scratch[4*n : 4*n : 6*n], pay: scratch[6*n : 6*n : 8*n], dnsb: scratch[8*n : 8*n : 12*n],
		raw: make([]byte, 0, 16*n),
	}
	streams := make([]byte, 0, 4*len(rows))
	for st := 0; st < nstripes; st++ {
		if err := e.stripe(rows[st*segStripeRows : min((st+1)*segStripeRows, len(rows))]); err != nil {
			return nil, err
		}
		start := len(streams)
		streams = deflate.Append(streams, e.raw)
		head = binary.AppendUvarint(head, uint64(len(e.raw)))
		head = binary.AppendUvarint(head, uint64(len(streams)-start))
		head = binary.LittleEndian.AppendUint32(head, frame.Sum(streams[start:]))
	}
	return append(head, streams...), nil
}

// segSums is a parsed summary column: the stripe geometry a directory
// keeps. The streams stay in the file; a cursor finds them at streamsOff.
type segSums struct {
	count, stripeRows int
	rawLen            []uint32
	compOff, compLen  []int
	compSum           []uint32
	streamsOff        int
}

// parseSums validates the summary column's framing: stripe geometry and
// stream extents that exactly cover the rest of the payload.
func (sb *segBlob) parseSums() (*segSums, error) {
	payload, err := sb.col(segColSummary)
	if err != nil {
		return nil, err
	}
	r := &segReader{b: payload}
	sr, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if sr == 0 || sr > segMaxCount {
		return nil, segErr("summary stripe rows %d out of range", sr)
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	s := &segSums{count: sb.count, stripeRows: int(sr)}
	if want := (sb.count + s.stripeRows - 1) / s.stripeRows; n != uint64(want) {
		return nil, segErr("summary column claims %d stripes, geometry needs %d", n, want)
	}
	s.rawLen = make([]uint32, n)
	s.compOff, s.compLen = make([]int, n), make([]int, n)
	s.compSum = make([]uint32, n)
	off := 0
	for st := range s.rawLen {
		raw, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		// Generous for any stripe Parse can yield: under 64 bytes a row
		// with its entry, against 128 here.
		if lo, hi := s.rows(st); raw > uint64(128*(hi-lo)) {
			return nil, segErr("summary stripe %d claims %d bytes", st, raw)
		}
		cl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if cl > uint64(len(payload)) {
			return nil, segErr("summary stripe %d claims a %d-byte stream", st, cl)
		}
		sum, err := r.fixed(4)
		if err != nil {
			return nil, err
		}
		s.rawLen[st], s.compOff[st], s.compLen[st] = uint32(raw), off, int(cl)
		s.compSum[st] = binary.LittleEndian.Uint32(sum)
		off += int(cl)
	}
	if off != len(payload)-r.off {
		return nil, segErr("summary streams claim %d bytes, %d remain", off, len(payload)-r.off)
	}
	s.streamsOff = r.off
	return s, nil
}

// bytes is the resident footprint of the geometry, for the cache budget.
func (s *segSums) bytes() int64 {
	return 8*int64(cap(s.rawLen)) + 16*int64(cap(s.compOff))
}

// rows returns stripe st's row interval [lo, hi).
func (s *segSums) rows(st int) (int, int) {
	lo := st * s.stripeRows
	return lo, min(lo+s.stripeRows, s.count)
}

// decodeStripe checks stripe st's stream against its CRC, inflates it and
// decodes its rows' summaries, reading the frame lengths WireLen is coded
// against from the data column's geometry.
func (s *segSums) decodeStripe(streams []byte, st int, data *segData) ([]packet.Summary, error) {
	src := streams[s.compOff[st] : s.compOff[st]+s.compLen[st]]
	if err := frame.Check(src, s.compSum[st]); err != nil {
		return nil, segErr("summary stripe %d: %v", st, err)
	}
	raw := make([]byte, s.rawLen[st])
	if err := inflate.Into(raw, src); err != nil {
		return nil, segErr("inflate summary stripe %d: %v", st, err)
	}
	lo, hi := s.rows(st)
	out := make([]packet.Summary, hi-lo)
	r := &segReader{b: raw}
	ne, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ne == 0 || ne > uint64(len(out)) {
		return nil, segErr("summary stripe %d claims %d entries for %d rows", st, ne, len(out))
	}
	ents, err := r.entries(int(ne))
	if err != nil {
		return nil, err
	}
	next := uint64(0) // entries used so far: the next new one
	for i := range out {
		ref, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if ref > next || ref == 0 && next == ne {
			return nil, segErr("summary row %d names entry %d with %d of %d used", lo+i, ref, next, ne)
		}
		code := ref - 1
		if ref == 0 {
			code = next
			next++
		}
		out[i] = ents[code]
	}
	if next != ne {
		return nil, segErr("summary stripe %d uses %d of its %d entries", st, next, ne)
	}
	flags, err := r.fixed(len(out))
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].TCPFlags = packet.TCPFlags(flags[i])
	}
	for i := range out {
		d, err := r.delta()
		if err != nil {
			return nil, err
		}
		if out[i].WireLen = int(data.rowOff[lo+i+1]-data.rowOff[lo+i]) - d; out[i].WireLen < 0 || out[i].WireLen > segMaxPacket {
			return nil, segErr("summary row %d wire length %d out of range", lo+i, out[i].WireLen)
		}
	}
	for i := range out {
		d, err := r.delta()
		if err != nil {
			return nil, err
		}
		if out[i].IPLen = out[i].WireLen - 14 - d; out[i].IPLen < 0 || out[i].IPLen > sumMaxIPLen {
			return nil, segErr("summary row %d IP length %d out of range", lo+i, out[i].IPLen)
		}
	}
	for i := range out {
		d, err := r.delta()
		if err != nil {
			return nil, err
		}
		if out[i].PayloadLen = out[i].IPLen - d; out[i].PayloadLen < 0 || out[i].PayloadLen > out[i].WireLen {
			return nil, segErr("summary row %d payload length %d out of range", lo+i, out[i].PayloadLen)
		}
	}
	for i := range out {
		if sm := &out[i]; sm.IsDNS {
			qt, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			an, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			d, err := r.delta()
			if err != nil {
				return nil, err
			}
			if qt > 0xffff || an > 0xffff {
				return nil, segErr("summary row %d DNS type %d or answer count %d out of range", lo+i, qt, an)
			}
			sm.DNSQueryType, sm.DNSAnswerCnt = packet.DNSType(qt), int(an)
			if sm.DNSMsgLen = sm.PayloadLen - d; sm.DNSMsgLen < 0 || sm.DNSMsgLen > sm.PayloadLen {
				return nil, segErr("summary row %d DNS length %d out of range", lo+i, sm.DNSMsgLen)
			}
		}
	}
	if !r.done() {
		return nil, segErr("trailing bytes in summary stripe %d", st)
	}
	return out, nil
}

// entries decodes a stripe's n entries into the summary templates they
// stand for.
func (r *segReader) entries(n int) ([]packet.Summary, error) {
	shapes, err := r.fixed(n)
	if err != nil {
		return nil, err
	}
	protos, err := r.fixed(n)
	if err != nil {
		return nil, err
	}
	ttls, err := r.fixed(n)
	if err != nil {
		return nil, err
	}
	ents := make([]packet.Summary, n)
	for i, shape := range shapes {
		sm := &ents[i]
		sm.HasIP, sm.HasTCP, sm.HasUDP = shape&shapeIP != 0, shape&shapeTCP != 0, shape&shapeUDP != 0
		sm.HasICMP, sm.IsDNS, sm.DNSResponse = shape&shapeICMP != 0, shape&shapeDNS != 0, shape&shapeDNSResp != 0
		sm.Tuple.Proto, sm.TTL = packet.IPProtocol(protos[i]), ttls[i]
		if shape&(shapeAddr4|shapeAddr6) == shapeAddr4|shapeAddr6 {
			return nil, segErr("summary entry shape %#x claims both address families", shape)
		}
	}
	for _, src := range [2]bool{true, false} {
		for i, shape := range shapes {
			var a netip.Addr
			switch shape & (shapeAddr4 | shapeAddr6) {
			case shapeAddr4:
				b, err := r.fixed(4)
				if err != nil {
					return nil, err
				}
				a = netip.AddrFrom4([4]byte(b))
			case shapeAddr6:
				b, err := r.fixed(16)
				if err != nil {
					return nil, err
				}
				a = netip.AddrFrom16([16]byte(b))
			default:
				continue
			}
			if src {
				ents[i].Tuple.SrcIP = a
			} else {
				ents[i].Tuple.DstIP = a
			}
		}
	}
	ports, err := r.fixed(4 * n)
	if err != nil {
		return nil, err
	}
	for i := range ents {
		ents[i].Tuple.SrcPort = binary.LittleEndian.Uint16(ports[2*i:])
		ents[i].Tuple.DstPort = binary.LittleEndian.Uint16(ports[2*(n+i):])
	}
	return ents, nil
}

// fixed returns the next n bytes.
func (r *segReader) fixed(n int) ([]byte, error) {
	if len(r.b)-r.off < n {
		return nil, segErr("truncated at offset %d", r.off)
	}
	r.off += n
	return r.b[r.off-n : r.off], nil
}

// delta reads one zigzag-coded difference, refusing one past sumMaxDelta.
func (r *segReader) delta() (int, error) {
	z, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if z > 2*sumMaxDelta {
		return 0, segErr("difference %d out of range at offset %d", z, r.off)
	}
	return int(unzigzag(z)), nil
}
