package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func ip4(s string) netip.Addr { return netip.MustParseAddr(s) }

// serializeFrame writes payload and then layers (listed outermost first)
// back to front the way the traffic generator does, arming an IPv4 layer's
// addresses for the transport checksum.
func serializeFrame(t testing.TB, payload []byte, layers ...interface{ SerializeTo(*SerializeBuffer) error }) []byte {
	t.Helper()
	buf := NewSerializeBuffer()
	p, _ := buf.PrependBytes(len(payload))
	copy(p, payload)
	for _, l := range layers {
		if ip, ok := l.(*IPv4); ok {
			buf.SetNetworkLayerForChecksum(ip.SrcIP, ip.DstIP)
		}
	}
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(buf); err != nil {
			t.Fatalf("serialize: %v", err)
		}
	}
	return append([]byte(nil), buf.Bytes()...)
}

// buildUDPDNS serializes a full Ethernet/IPv4/UDP/DNS frame for tests.
func buildUDPDNS(t testing.TB, d *DNS, src, dst netip.Addr, sport, dport uint16) []byte {
	return serializeFrame(t, nil,
		&Ethernet{SrcMAC: MACAddr{2, 0, 0, 0, 0, 1}, DstMAC: MACAddr{2, 0, 0, 0, 0, 2}, EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtocolUDP, SrcIP: src, DstIP: dst},
		&UDP{SrcPort: sport, DstPort: dport},
		d,
	)
}

// verifyTCPChecksum and verifyUDPChecksum recompute a transport checksum
// over the segment or datagram and its pseudo-header; a zero UDP checksum
// field (checksum disabled) verifies trivially.
func verifyTCPChecksum(src, dst netip.Addr, segment []byte) bool {
	sum := pseudoHeaderChecksum(src, dst, IPProtocolTCP, len(segment))
	return finishChecksum(sumBytes(sum, segment)) == 0
}

func verifyUDPChecksum(src, dst netip.Addr, dgram []byte) bool {
	if len(dgram) < udpHeaderLen {
		return false
	}
	if dgram[6] == 0 && dgram[7] == 0 {
		return true
	}
	sum := pseudoHeaderChecksum(src, dst, IPProtocolUDP, len(dgram))
	return finishChecksum(sumBytes(sum, dgram)) == 0
}

func TestEthernetRoundTrip(t *testing.T) {
	e := &Ethernet{
		SrcMAC:    MACAddr{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff},
		DstMAC:    MACAddr{2, 4, 6, 8, 10, 12},
		EtherType: EtherTypeIPv4,
	}
	buf := NewSerializeBuffer()
	if _, err := buf.PrependBytes(4); err != nil {
		t.Fatal(err)
	}
	copy(buf.Bytes(), "data")
	if err := e.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var got Ethernet
	if err := got.decodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got.SrcMAC != e.SrcMAC || got.DstMAC != e.DstMAC || got.EtherType != e.EtherType {
		t.Errorf("round trip mismatch: %+v vs %+v", got, e)
	}
	if string(got.payload) != "data" {
		t.Errorf("payload = %q", got.payload)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var e Ethernet
	err := e.decodeFromBytes(make([]byte, 13))
	if !errors.Is(err, errTruncated) {
		t.Errorf("want errTruncated, got %v", err)
	}
}

func TestMACAddrPredicates(t *testing.T) {
	if got := (MACAddr{0xaa, 0, 1, 2, 3, 4}).String(); got != "aa:00:01:02:03:04" {
		t.Errorf("String = %q", got)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	ip := &IPv4{
		TOS: 0x10, ID: 0x1234, Flags: IPv4DontFragment, TTL: 63,
		Protocol: IPProtocolUDP,
		SrcIP:    ip4("10.1.2.3"), DstIP: ip4("192.168.9.8"),
	}
	buf := NewSerializeBuffer()
	payload, _ := buf.PrependBytes(11)
	copy(payload, "hello world")
	if err := ip.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	// Header checksum must verify to zero when recomputed over the header.
	if got := internetChecksum(wire[:20]); got != 0 {
		t.Errorf("header checksum verify = %#x, want 0", got)
	}
	var got IPv4
	if err := got.decodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != ip.SrcIP || got.DstIP != ip.DstIP || got.TTL != 63 ||
		got.Protocol != IPProtocolUDP || got.Flags != IPv4DontFragment || got.ID != 0x1234 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if string(got.payload) != "hello world" {
		t.Errorf("payload = %q", got.payload)
	}
	if got.Length != 31 {
		t.Errorf("Length = %d, want 31", got.Length)
	}
}

func TestIPv4Malformed(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short", make([]byte, 10), errTruncated},
		{"version6", append([]byte{0x65}, make([]byte, 19)...), errMalformed},
		{"badIHL", append([]byte{0x42}, make([]byte, 19)...), errMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ip IPv4
			if err := ip.decodeFromBytes(tc.data); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	ip := &ipv6{
		TrafficClass: 3, FlowLabel: 0x54321, NextHeader: IPProtocolTCP, HopLimit: 61,
		SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.MustParseAddr("2001:db8::2"),
	}
	// No serializer writes IPv6 (the generator emits none), so the header
	// is laid out by hand.
	wire := make([]byte, ipv6HeaderLen, ipv6HeaderLen+5)
	binary.BigEndian.PutUint32(wire[0:4], 6<<28|uint32(ip.TrafficClass)<<20|ip.FlowLabel)
	binary.BigEndian.PutUint16(wire[4:6], 5)
	wire[6], wire[7] = uint8(ip.NextHeader), ip.HopLimit
	src, dst := ip.SrcIP.As16(), ip.DstIP.As16()
	copy(wire[8:24], src[:])
	copy(wire[24:40], dst[:])
	wire = append(wire, "six!!"...)
	var got ipv6
	if err := got.decodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != ip.SrcIP || got.DstIP != ip.DstIP || got.HopLimit != 61 ||
		got.FlowLabel != 0x54321 || got.TrafficClass != 3 || got.NextHeader != IPProtocolTCP {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.Length != 5 || string(got.payload) != "six!!" {
		t.Errorf("payload: len=%d %q", got.Length, got.payload)
	}
}

func TestTCPRoundTripWithOptions(t *testing.T) {
	tc := &TCP{
		SrcPort: 443, DstPort: 53211, Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: TCPSyn | TCPAck, Window: 65000,
		Options: []TCPOption{
			{Kind: tcpOptMSS, Data: []byte{0x05, 0xb4}},
			{Kind: tcpOptWScale, Data: []byte{7}},
		},
	}
	src, dst := ip4("10.0.0.1"), ip4("10.0.0.2")
	buf := NewSerializeBuffer()
	buf.SetNetworkLayerForChecksum(src, dst)
	p, _ := buf.PrependBytes(3)
	copy(p, "abc")
	if err := tc.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	seg := buf.Bytes()
	if !verifyTCPChecksum(src, dst, seg) {
		t.Error("tcp checksum does not verify")
	}
	var got TCP
	if err := got.decodeFromBytes(seg); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 443 || got.DstPort != 53211 || got.Seq != 0xdeadbeef ||
		!got.Flags.Has(TCPSyn|TCPAck) || got.Window != 65000 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if len(got.Options) != 2 || got.Options[0].Kind != tcpOptMSS || got.Options[1].Kind != tcpOptWScale {
		t.Errorf("options = %+v", got.Options)
	}
	if string(got.payload) != "abc" {
		t.Errorf("payload = %q", got.payload)
	}
}

func TestTCPFlagsString(t *testing.T) {
	if got := (TCPSyn | TCPAck).String(); got != "SYN|ACK" {
		t.Errorf("got %q", got)
	}
	if got := TCPFlags(0).String(); got != "none" {
		t.Errorf("got %q", got)
	}
}

func TestTCPMalformedOptions(t *testing.T) {
	// DataOffset claims 6 words (4 bytes of options) but option length runs off.
	seg := make([]byte, 24)
	seg[12] = 6 << 4
	seg[20] = tcpOptMSS
	seg[21] = 10 // longer than remaining option space
	var tc TCP
	if err := tc.decodeFromBytes(seg); !errors.Is(err, errMalformed) {
		t.Errorf("got %v, want errMalformed", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := &UDP{SrcPort: 53, DstPort: 31337}
	src, dst := ip4("8.8.8.8"), ip4("10.0.0.9")
	buf := NewSerializeBuffer()
	buf.SetNetworkLayerForChecksum(src, dst)
	p, _ := buf.PrependBytes(4)
	copy(p, "dns!")
	if err := u.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	dgram := buf.Bytes()
	if !verifyUDPChecksum(src, dst, dgram) {
		t.Error("udp checksum does not verify")
	}
	var got UDP
	if err := got.decodeFromBytes(dgram); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 53 || got.DstPort != 31337 || got.Length != 12 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	// An echo request (type 8), ID 7, sequence 42, laid out by hand: no
	// serializer writes ICMP.
	wire := append([]byte{8, 0, 0, 0, 0, 7, 0, 42}, "pingdata"...)
	binary.BigEndian.PutUint16(wire[2:4], internetChecksum(wire))
	if internetChecksum(wire) != 0 {
		t.Error("icmp checksum does not verify")
	}
	var got icmpv4
	if err := got.decodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if got.Type != 8 || got.ID != 7 || got.Seq != 42 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestDNSRoundTrip(t *testing.T) {
	d := &DNS{
		ID: 0xbeef, QR: true, AA: true, RD: true, RA: true,
		Questions: []DNSQuestion{{Name: "www.example.edu", Type: DNSTypeA, Class: 1}},
		Answers: []DNSResourceRecord{
			{Name: "www.example.edu", Type: DNSTypeA, Class: 1, TTL: 300, Data: []byte{93, 184, 216, 34}},
			{Name: "www.example.edu", Type: DNSTypeTXT, Class: 1, TTL: 60, Data: bytes.Repeat([]byte{'x'}, 100)},
		},
	}
	buf := NewSerializeBuffer()
	if err := d.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var got DNS
	if err := got.decodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got.ID != 0xbeef || !got.QR || !got.AA || !got.RD || !got.RA {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "www.example.edu" || got.Questions[0].Type != DNSTypeA {
		t.Errorf("questions = %+v", got.Questions)
	}
	if len(got.Answers) != 2 || !bytes.Equal(got.Answers[0].Data, []byte{93, 184, 216, 34}) {
		t.Errorf("answers = %+v", got.Answers)
	}
	if got.decodedSize != len(buf.Bytes()) {
		t.Errorf("decodedSize = %d, want %d", got.decodedSize, len(buf.Bytes()))
	}
}

func TestDNSCompressedName(t *testing.T) {
	// Hand-built response: question "ab.cd", answer name is a pointer to it.
	msg := []byte{
		0x12, 0x34, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0,
		2, 'a', 'b', 2, 'c', 'd', 0, // name at offset 12
		0, 1, 0, 1, // qtype A, class IN
		0xc0, 12, // pointer to offset 12
		0, 1, 0, 1, 0, 0, 1, 0, 0, 4, 1, 2, 3, 4,
	}
	var d DNS
	if err := d.decodeFromBytes(msg); err != nil {
		t.Fatal(err)
	}
	if d.Questions[0].Name != "ab.cd" {
		t.Errorf("question name = %q", d.Questions[0].Name)
	}
	if d.Answers[0].Name != "ab.cd" {
		t.Errorf("answer name = %q", d.Answers[0].Name)
	}
}

func TestDNSCompressionLoopRejected(t *testing.T) {
	// Pointer at offset 12 points to itself.
	msg := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xc0, 12,
		0, 1, 0, 1,
	}
	var d DNS
	if err := d.decodeFromBytes(msg); !errors.Is(err, errMalformed) {
		t.Errorf("got %v, want errMalformed", err)
	}
}

func TestDNSNameTooLongRejected(t *testing.T) {
	long := strings.Repeat("aaaaaaaaaaaaaaa.", 20) + "com" // > 255 bytes
	_, err := encodeDNSName(nil, long)
	if err != nil {
		return // encoder may reject; fine
	}
	// If encoder accepted, decoder must cap it.
	d := &DNS{Questions: []DNSQuestion{{Name: long, Type: DNSTypeA, Class: 1}}}
	buf := NewSerializeBuffer()
	if err := d.SerializeTo(buf); err != nil {
		return
	}
	var got DNS
	if err := got.decodeFromBytes(buf.Bytes()); !errors.Is(err, errMalformed) {
		t.Errorf("decoder accepted >255 byte name: %v", err)
	}
}

func TestFullStackDecode(t *testing.T) {
	d := &DNS{
		ID: 1, RD: true,
		Questions: []DNSQuestion{{Name: "cs.ucsb.edu", Type: DNSTypeANY, Class: 1}},
	}
	frame := buildUDPDNS(t, d, ip4("10.3.0.5"), ip4("8.8.4.4"), 51234, 53)
	var (
		eth Ethernet
		ip  IPv4
		udp UDP
		dns DNS
	)
	if err := eth.decodeFromBytes(frame); err != nil || eth.EtherType != EtherTypeIPv4 {
		t.Fatalf("ethernet: %v, type %#x", err, eth.EtherType)
	}
	if err := ip.decodeFromBytes(eth.payload); err != nil || ip.Protocol != IPProtocolUDP {
		t.Fatalf("ipv4: %v, proto %v", err, ip.Protocol)
	}
	if err := udp.decodeFromBytes(ip.payload); err != nil {
		t.Fatalf("udp: %v", err)
	}
	if err := dns.decodeFromBytes(udp.payload); err != nil {
		t.Fatalf("dns: %v", err)
	}
	if dns.Questions[0].Name != "cs.ucsb.edu" || dns.Questions[0].Type != DNSTypeANY {
		t.Errorf("dns question = %+v", dns.Questions[0])
	}
	if ip.SrcIP != ip4("10.3.0.5") || ip.DstIP != ip4("8.8.4.4") || udp.SrcPort != 51234 || udp.DstPort != 53 {
		t.Errorf("tuple = %v:%d > %v:%d", ip.SrcIP, udp.SrcPort, ip.DstIP, udp.DstPort)
	}
}

func TestDecodeTruncatedMarksPacket(t *testing.T) {
	d := &DNS{ID: 1, Questions: []DNSQuestion{{Name: "x.edu", Type: DNSTypeA, Class: 1}}}
	frame := buildUDPDNS(t, d, ip4("10.0.0.1"), ip4("10.0.0.2"), 1000, 53)
	cut := frame[:20] // cut mid-IPv4
	var eth Ethernet
	if err := eth.decodeFromBytes(cut); err != nil {
		t.Fatalf("ethernet layer should have survived: %v", err)
	}
	var ip IPv4
	if err := ip.decodeFromBytes(eth.payload); !errors.Is(err, errTruncated) {
		t.Errorf("ipv4 of a cut frame: %v, want errTruncated", err)
	}
}

func TestFiveTupleCanonical(t *testing.T) {
	f := FiveTuple{Proto: IPProtocolTCP, SrcIP: ip4("10.0.0.2"), DstIP: ip4("10.0.0.1"), SrcPort: 443, DstPort: 5555}
	c := f.Canonical()
	if c.SrcIP != ip4("10.0.0.1") {
		t.Errorf("canonical src = %v", c.SrcIP)
	}
	if f.reverse().Canonical() != c {
		t.Error("canonical not direction independent")
	}
	if f.Hash() != f.reverse().Hash() {
		t.Error("hash not direction independent")
	}
	if !c.less() {
		t.Error("canonical form not reported canonical")
	}
}

func TestFiveTupleCanonicalProperty(t *testing.T) {
	// Property: Canonical is idempotent and direction-independent for
	// arbitrary tuples.
	fn := func(a, b [4]byte, pa, pb uint16, proto uint8) bool {
		f := FiveTuple{
			Proto: IPProtocol(proto),
			SrcIP: netip.AddrFrom4(a), DstIP: netip.AddrFrom4(b),
			SrcPort: pa, DstPort: pb,
		}
		c := f.Canonical()
		return c == c.Canonical() && c == f.reverse().Canonical() && f.Hash() == f.reverse().Hash()
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := NewSerializeBuffer()
	total := 0
	for i := 0; i < 100; i++ {
		p, err := b.PrependBytes(100)
		if err != nil {
			t.Fatal(err)
		}
		for j := range p {
			p[j] = byte(i)
		}
		total += 100
	}
	if len(b.Bytes()) != total {
		t.Errorf("len = %d, want %d", len(b.Bytes()), total)
	}
	// First 100 bytes must be from the LAST prepend (i=99).
	if b.Bytes()[0] != 99 {
		t.Errorf("front byte = %d, want 99", b.Bytes()[0])
	}
	b.Clear()
	if len(b.Bytes()) != 0 {
		t.Error("Clear did not empty buffer")
	}
}

func TestFlowParserSummary(t *testing.T) {
	d := &DNS{
		ID: 9, QR: true,
		Questions: []DNSQuestion{{Name: "big.example.org", Type: DNSTypeANY, Class: 1}},
		Answers: []DNSResourceRecord{
			{Name: "big.example.org", Type: DNSTypeTXT, Class: 1, TTL: 1, Data: bytes.Repeat([]byte{'a'}, 500)},
			{Name: "big.example.org", Type: DNSTypeTXT, Class: 1, TTL: 1, Data: bytes.Repeat([]byte{'b'}, 500)},
		},
	}
	frame := buildUDPDNS(t, d, ip4("8.8.8.8"), ip4("10.2.3.4"), 53, 40000)
	fp := NewFlowParser()
	var s Summary
	if err := fp.Parse(frame, &s); err != nil {
		t.Fatal(err)
	}
	if !s.HasIP || !s.HasUDP || s.HasTCP {
		t.Errorf("layer flags wrong: %+v", s)
	}
	if !s.IsDNS || !s.DNSResponse || s.DNSAnswerCnt != 2 || s.DNSQueryType != DNSTypeANY {
		t.Errorf("dns quick-look wrong: %+v", s)
	}
	if s.Tuple.SrcPort != 53 || s.Tuple.DstPort != 40000 {
		t.Errorf("tuple = %v", s.Tuple)
	}
	if s.WireLen != len(frame) {
		t.Errorf("WireLen = %d, want %d", s.WireLen, len(frame))
	}
	if s.DNSMsgLen < 1000 {
		t.Errorf("DNSMsgLen = %d, want >= 1000", s.DNSMsgLen)
	}
}

func TestFlowParserNonIP(t *testing.T) {
	frame := serializeFrame(t, make([]byte, 28), &Ethernet{EtherType: 0x0806}) // an ARP request
	fp := NewFlowParser()
	var s Summary
	if err := fp.Parse(frame, &s); !errors.Is(err, ErrNotIP) {
		t.Errorf("got %v, want ErrNotIP", err)
	}
	if s.WireLen != len(frame) {
		t.Error("WireLen should be set even for non-IP")
	}
}

func TestFlowParserReuseDoesNotLeakState(t *testing.T) {
	fp := NewFlowParser()
	d := &DNS{ID: 1, QR: true, Questions: []DNSQuestion{{Name: "a.b", Type: DNSTypeANY, Class: 1}}, Answers: []DNSResourceRecord{{Name: "a.b", Type: DNSTypeA, Class: 1, Data: []byte{1, 2, 3, 4}}}}
	dnsFrame := buildUDPDNS(t, d, ip4("1.1.1.1"), ip4("10.0.0.1"), 53, 9999)
	var s Summary
	if err := fp.Parse(dnsFrame, &s); err != nil || !s.IsDNS {
		t.Fatalf("dns parse: %v %+v", err, s)
	}
	// Now a plain TCP frame: DNS fields must be cleared.
	frame := serializeFrame(t, nil,
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtocolTCP, SrcIP: ip4("10.0.0.1"), DstIP: ip4("10.0.0.2")},
		&TCP{SrcPort: 1234, DstPort: 80, Flags: TCPSyn},
	)
	if err := fp.Parse(frame, &s); err != nil {
		t.Fatal(err)
	}
	if s.IsDNS || s.DNSAnswerCnt != 0 || !s.HasTCP || !s.TCPFlags.Has(TCPSyn) {
		t.Errorf("stale state: %+v", s)
	}
}

// TestFlowParserNonFirstFragmentIsIPOnly: a non-first IPv4 fragment
// carries no transport header, whatever its protocol, so the summary is
// IP-only and parsing succeeds however short the fragment is.
func TestFlowParserNonFirstFragmentIsIPOnly(t *testing.T) {
	for _, proto := range []IPProtocol{IPProtocolICMPv4, IPProtocolTCP} {
		for _, n := range []int{4, 40} {
			frame := serializeFrame(t, make([]byte, n),
				&Ethernet{EtherType: EtherTypeIPv4},
				&IPv4{TTL: 64, Protocol: proto, FragOffset: 100, SrcIP: ip4("10.0.0.1"), DstIP: ip4("10.0.0.2")},
			)
			var s Summary
			if err := NewFlowParser().Parse(frame, &s); err != nil {
				t.Errorf("%v fragment of %d bytes: %v", proto, n, err)
				continue
			}
			if !s.HasIP || s.HasTCP || s.HasUDP || s.HasICMP || s.PayloadLen != 0 || s.Tuple.Proto != proto {
				t.Errorf("%v fragment of %d bytes: summary %+v, want IP-only", proto, n, s)
			}
		}
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	// Property: arbitrary bytes never panic a layer decoder or FlowParser.
	fn := func(data []byte) bool {
		var (
			eth Ethernet
			ip  IPv4
			ip6 ipv6
			tcp TCP
			udp UDP
			ic  icmpv4
			dns DNS
			s   Summary
		)
		for _, decode := range []func([]byte) error{
			eth.decodeFromBytes, ip.decodeFromBytes, ip6.decodeFromBytes, tcp.decodeFromBytes,
			udp.decodeFromBytes, ic.decodeFromBytes, dns.decodeFromBytes,
		} {
			_ = decode(data)
		}
		_ = NewFlowParser().Parse(data, &s)
		return true
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(fn, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkFlowParser(b *testing.B) {
	d := &DNS{ID: 9, QR: true, Questions: []DNSQuestion{{Name: "www.ucsb.edu", Type: DNSTypeA, Class: 1}}}
	frame := buildUDPDNS(b, d, ip4("8.8.8.8"), ip4("10.2.3.4"), 53, 40000)
	fp := NewFlowParser()
	var s Summary
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		if err := fp.Parse(frame, &s); err != nil {
			b.Fatal(err)
		}
	}
}
