package datastore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"campuslab/internal/deflate"
	"campuslab/internal/frame"
	"campuslab/internal/inflate"
	"campuslab/internal/packet"
)

// Frame builders for the summary column's property test: each header is
// written out byte by byte, so a case can be any shape Parse meets —
// truncated, padded, fragmented — not only what the traffic generator
// emits.

func ethFrame(etherType uint16, payload []byte) []byte {
	b := []byte{2, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2, byte(etherType >> 8), byte(etherType)}
	return append(b, payload...)
}

func ipv4Pkt(proto byte, src, dst string, frag uint16, payload []byte) []byte {
	h := make([]byte, 20, 20+len(payload))
	h[0] = 0x45
	binary.BigEndian.PutUint16(h[2:], uint16(20+len(payload)))
	binary.BigEndian.PutUint16(h[6:], frag)
	h[8], h[9] = 61, proto
	s, d := netip.MustParseAddr(src).As4(), netip.MustParseAddr(dst).As4()
	copy(h[12:], s[:])
	copy(h[16:], d[:])
	return append(h, payload...)
}

func ipv6Pkt(next byte, src, dst string, payload []byte) []byte {
	h := make([]byte, 40, 40+len(payload))
	h[0] = 0x60
	binary.BigEndian.PutUint16(h[4:], uint16(len(payload)))
	h[6], h[7] = next, 57
	s, d := netip.MustParseAddr(src).As16(), netip.MustParseAddr(dst).As16()
	copy(h[8:], s[:])
	copy(h[24:], d[:])
	return append(h, payload...)
}

func tcpSeg(sport, dport uint16, flags packet.TCPFlags, payload []byte) []byte {
	h := make([]byte, 20, 20+len(payload))
	binary.BigEndian.PutUint16(h, sport)
	binary.BigEndian.PutUint16(h[2:], dport)
	h[12], h[13] = 5<<4, byte(flags)
	return append(h, payload...)
}

func udpDgram(sport, dport uint16, payload []byte) []byte {
	h := make([]byte, 8, 8+len(payload))
	binary.BigEndian.PutUint16(h, sport)
	binary.BigEndian.PutUint16(h[2:], dport)
	binary.BigEndian.PutUint16(h[4:], uint16(8+len(payload)))
	return append(h, payload...)
}

// dnsMsg is one question for www.example.com and answers A records.
func dnsMsg(resp bool, answers int, qtype packet.DNSType) []byte {
	m := []byte{0x12, 0x34, 0x01, 0x00, 0, 1, 0, byte(answers), 0, 0, 0, 0}
	if resp {
		m[2], m[3] = 0x81, 0x80
	}
	m = append(m, "\x03www\x07example\x03com\x00"...)
	m = append(m, byte(qtype>>8), byte(qtype), 0, 1)
	for i := 0; i < answers; i++ {
		m = append(m, 0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, byte(i))
	}
	return m
}

// summaryCases are frames of every shape the summary column must carry.
func summaryCases() map[string][]byte {
	const v4a, v4b = "10.1.2.3", "192.0.2.7"
	const v6a, v6b = "2001:db8::1", "2001:db8:ffff::2"
	payload := []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
	syn := ethFrame(0x0800, ipv4Pkt(6, v4a, v4b, 0, tcpSeg(40000, 443, packet.TCPSyn, nil)))
	return map[string][]byte{
		"empty":               {},
		"runt":                {1, 2, 3, 4, 5},
		"arp":                 ethFrame(0x0806, make([]byte, 28)),
		"ipv4 truncated":      ethFrame(0x0800, ipv4Pkt(6, v4a, v4b, 0, nil)[:12]),
		"ipv4 bad ihl":        ethFrame(0x0800, append([]byte{0x43}, ipv4Pkt(6, v4a, v4b, 0, nil)[1:]...)),
		"tcp syn":             syn,
		"tcp syn padded":      append(append([]byte(nil), syn...), 0, 0, 0, 0, 0, 0),
		"tcp psh ack":         ethFrame(0x0800, ipv4Pkt(6, v4b, v4a, 0, tcpSeg(443, 40000, packet.TCPPsh|packet.TCPAck, payload))),
		"tcp header cut":      ethFrame(0x0800, ipv4Pkt(6, v4a, v4b, 0, tcpSeg(40000, 443, packet.TCPSyn, nil)[:11])),
		"ipv4 fragment":       ethFrame(0x0800, ipv4Pkt(17, v4a, v4b, 185, udpDgram(5000, 53, payload))),
		"ipv4 gre":            ethFrame(0x0800, ipv4Pkt(47, v4a, v4b, 0, payload)),
		"icmp echo":           ethFrame(0x0800, ipv4Pkt(1, v4a, v4b, 0, append([]byte{8, 0, 0, 0, 0, 1, 0, 1}, payload...))),
		"udp zero payload":    ethFrame(0x0800, ipv4Pkt(17, v4a, v4b, 0, udpDgram(9999, 123, nil))),
		"dns query":           ethFrame(0x0800, ipv4Pkt(17, v4a, v4b, 0, udpDgram(5353, 53, dnsMsg(false, 0, packet.DNSTypeA)))),
		"dns answers":         ethFrame(0x0800, ipv4Pkt(17, v4b, v4a, 0, udpDgram(53, 5353, dnsMsg(true, 3, packet.DNSTypeANY)))),
		"dns no answers":      ethFrame(0x0800, ipv4Pkt(17, v4b, v4a, 0, udpDgram(53, 5353, dnsMsg(true, 0, packet.DNSTypeAAAA)))),
		"dns too short":       ethFrame(0x0800, ipv4Pkt(17, v4a, v4b, 0, udpDgram(5353, 53, []byte{1, 2, 3}))),
		"ipv6 tcp":            ethFrame(0x86dd, ipv6Pkt(6, v6a, v6b, tcpSeg(50000, 22, packet.TCPAck, payload))),
		"ipv6 dns":            ethFrame(0x86dd, ipv6Pkt(17, v6b, v6a, udpDgram(53, 50000, dnsMsg(true, 1, packet.DNSTypeAAAA)))),
		"ipv6 icmpv6":         ethFrame(0x86dd, ipv6Pkt(58, v6a, v6b, []byte{128, 0, 0, 0, 0, 1, 0, 1})),
		"ipv6 truncated":      ethFrame(0x86dd, ipv6Pkt(6, v6a, v6b, nil)[:30]),
		"ipv4-mapped ipv6":    ethFrame(0x86dd, ipv6Pkt(17, "::ffff:10.0.0.1", "::ffff:192.0.2.9", udpDgram(4000, 4001, payload))),
		"ipv4-mapped tcp cut": ethFrame(0x86dd, ipv6Pkt(6, "::ffff:10.0.0.1", v6b, tcpSeg(1, 2, 0, nil)[:7])),
	}
}

// TestSummaryColumnIsTheParse is the property the cold read rests on: for
// every stored row, the summary the column gives back is what
// FlowParser.Parse makes of the row's frame — over real traffic and over
// every crafted shape cut at every length, so truncated, partial and
// non-IP parses are in it. The run spans several stripes.
func TestSummaryColumnIsTheParse(t *testing.T) {
	var frames [][]byte
	var names []string
	for _, sp := range segTestRows(t, 1500) {
		frames, names = append(frames, sp.Data), append(names, "traffic")
	}
	for name, fr := range summaryCases() {
		for cut := 0; cut <= len(fr); cut++ {
			frames, names = append(frames, fr[:cut]), append(names, fmt.Sprintf("%s cut at %d", name, cut))
		}
	}
	p := packet.NewFlowParser()
	rows := make([]StoredPacket, len(frames))
	for i, fr := range frames {
		rows[i] = StoredPacket{ID: PacketID(1 + i), TS: time.Duration(i) * time.Microsecond, Data: fr}
		_ = p.Parse(fr, &rows[i].Summary)
	}
	if len(rows) <= 2*segStripeRows {
		t.Fatalf("only %d rows: the run should span several stripes", len(rows))
	}
	blob, _, err := encodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSegmentRows(blob)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for i := range got {
		var want packet.Summary
		_ = p.Parse(got[i].Data, &want)
		if got[i].Summary != want || want != rows[i].Summary {
			t.Fatalf("%s: column gives %+v, Parse gives %+v", names[i], got[i].Summary, want)
		}
		s := &want
		kinds["non-IP"] = kinds["non-IP"] || !s.HasIP
		kinds["IPv6"] = kinds["IPv6"] || s.Tuple.SrcIP.Is6() && !s.Tuple.SrcIP.Is4In6()
		kinds["mapped"] = kinds["mapped"] || s.Tuple.SrcIP.Is4In6()
		kinds["ICMP"] = kinds["ICMP"] || s.HasICMP
		kinds["DNS answers"] = kinds["DNS answers"] || s.IsDNS && s.DNSAnswerCnt > 0
		kinds["DNS no answers"] = kinds["DNS no answers"] || s.IsDNS && s.DNSResponse && s.DNSAnswerCnt == 0
		kinds["partial"] = kinds["partial"] || s.HasIP && s.Tuple.Proto == 6 && !s.HasTCP
	}
	for k, seen := range kinds {
		if !seen {
			t.Errorf("no row of kind %s", k)
		}
	}
}

// rawStripes inflates every summary stripe of blob.
func rawStripes(tb testing.TB, blob []byte) [][]byte {
	tb.Helper()
	sb, err := parseSegment(blob)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sb.parseSums()
	if err != nil {
		tb.Fatal(err)
	}
	streams := sb.cols[segColSummary][s.streamsOff:]
	out := make([][]byte, len(s.rawLen))
	for st := range out {
		out[st] = make([]byte, s.rawLen[st])
		if err := inflate.Into(out[st], streams[s.compOff[st]:s.compOff[st]+s.compLen[st]]); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// withStripes is blob with its summary column — the last — rebuilt from
// raw stripes, each deflated and checksummed anew, so that only the
// stripe decoder can object to what they hold.
func withStripes(blob []byte, stripeRows int, raws [][]byte) []byte {
	col := binary.AppendUvarint(nil, uint64(stripeRows))
	col = binary.AppendUvarint(col, uint64(len(raws)))
	var streams []byte
	for _, raw := range raws {
		start := len(streams)
		streams = deflate.Append(streams, raw)
		col = binary.AppendUvarint(col, uint64(len(raw)))
		col = binary.AppendUvarint(col, uint64(len(streams)-start))
		col = binary.LittleEndian.AppendUint32(col, frame.Sum(streams[start:]))
	}
	col = append(col, streams...)
	sb, err := parseSegment(blob)
	if err != nil {
		panic(err)
	}
	head := blob[:len(blob)-len(sb.cols[segColSummary])-1-frame.BlockHeaderSize]
	return frame.AppendBlock(append(append([]byte(nil), head...), segColSummary), col)
}

// spliceUvarint replaces the uvarint at off with v.
func spliceUvarint(b []byte, off int, v uint64) []byte {
	_, n := binary.Uvarint(b[off:])
	out := binary.AppendUvarint(append([]byte(nil), b[:off]...), v)
	return append(out, b[off+n:]...)
}

// malformedSummaryBlobs are well-framed segments whose first summary
// stripe passes its CRC and inflates but holds what no parse yields.
func malformedSummaryBlobs(tb testing.TB, blob []byte) map[string][]byte {
	tb.Helper()
	raws := rawStripes(tb, blob)
	raw := raws[0]
	r := &segReader{b: raw}
	ne, err := r.uvarint()
	if err != nil {
		tb.Fatal(err)
	}
	shapes := r.off
	if _, err := r.entries(int(ne)); err != nil {
		tb.Fatal(err)
	}
	refs := r.off
	sb, err := parseSegment(blob)
	if err != nil {
		tb.Fatal(err)
	}
	rows := min(segStripeRows, sb.count)
	for i := 0; i < rows; i++ {
		if _, err := r.uvarint(); err != nil {
			tb.Fatal(err)
		}
	}
	wire := r.off + rows // past the flags bytes
	r.off = wire
	for i := 0; i < rows; i++ {
		if _, err := r.uvarint(); err != nil {
			tb.Fatal(err)
		}
	}
	ipl := r.off
	with := func(first []byte) []byte {
		return withStripes(blob, segStripeRows, append([][]byte{first}, raws[1:]...))
	}
	bothFamilies := append([]byte(nil), raw...)
	bothFamilies[shapes] |= shapeAddr4 | shapeAddr6
	return map[string][]byte{
		"trailing byte":      with(append(append([]byte(nil), raw...), 0)),
		"truncated":          with(raw[:len(raw)-1]),
		"no entries":         with(spliceUvarint(raw, 0, 0)),
		"more entries":       with(spliceUvarint(raw, 0, ne+1)),
		"both families":      with(bothFamilies),
		"entry not yet used": with(spliceUvarint(raw, refs, 2)),
		"wire length delta":  with(spliceUvarint(raw, wire, 2*sumMaxDelta+2)),
		"negative IP length": with(spliceUvarint(raw, ipl, zigzag(1<<20))),
	}
}

// TestSummaryStripeRefusesMalformed: a stripe whose stream is intact but
// whose content no parse produces fails the decode with a typed error —
// never a panic, never a wrong summary — and the cursor's first touch of
// that stripe fails likewise.
func TestSummaryStripeRefusesMalformed(t *testing.T) {
	blob, _, err := encodeSegment(segTestRows(t, 1500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSegmentRows(withStripes(blob, segStripeRows, rawStripes(t, blob))); err != nil {
		t.Fatalf("the rebuilt column of a valid blob is refused: %v", err)
	}
	for name, bad := range malformedSummaryBlobs(t, blob) {
		if _, err := decodeSegmentRows(bad); !errors.Is(err, errSegmentCorrupt) {
			t.Errorf("%s: decode err = %v, want errSegmentCorrupt", name, err)
		}
		if _, err := openSegMeta(bad); err != nil {
			t.Errorf("%s: attach refused a well-framed segment (%v); stripes are checked when read", name, err)
		}
	}
}
