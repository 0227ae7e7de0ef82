package packet

import "errors"

// Summary is the fixed-size, allocation-free digest of one packet that the
// hot capture and dataplane paths operate on. It carries exactly the fields
// the feature extractors and match-action tables key on.
type Summary struct {
	Tuple      FiveTuple
	WireLen    int // bytes on the wire (frame length)
	IPLen      int // IP total length
	PayloadLen int // transport payload bytes
	TTL        uint8
	TCPFlags   TCPFlags
	HasIP      bool
	HasTCP     bool
	HasUDP     bool
	HasICMP    bool

	// DNS quick-look fields, populated without building a DNS struct.
	IsDNS        bool
	DNSResponse  bool
	DNSQueryType DNSType // type of the first question, if parseable
	DNSAnswerCnt int
	DNSMsgLen    int
}

// FlowParser is the allocation-free fast-path decoder: one instance per
// goroutine, reused across packets (the DecodingLayerParser idiom). It
// decodes Ethernet/IPv4/IPv6/TCP/UDP/ICMP in place and extracts DNS
// indicators without touching the heap.
type FlowParser struct {
	eth  Ethernet
	ip4  IPv4
	ip6  ipv6
	tcp  TCP
	udp  UDP
	icmp icmpv4
}

// NewFlowParser returns a ready parser. The zero value is also usable.
func NewFlowParser() *FlowParser { return &FlowParser{} }

// ErrNotIP reports a frame whose EtherType the parser does not handle.
var ErrNotIP = errors.New("packet: frame is not IPv4/IPv6")

// Parse decodes frame (starting at Ethernet) into s. It returns ErrNotIP
// for non-IP frames (ARP etc.) with s.WireLen still set; other errors mean
// a malformed/truncated packet.
func (fp *FlowParser) Parse(frame []byte, s *Summary) error {
	*s = Summary{WireLen: len(frame)}
	if err := fp.eth.decodeFromBytes(frame); err != nil {
		return err
	}
	var (
		payload []byte
		proto   IPProtocol
	)
	switch fp.eth.EtherType {
	case EtherTypeIPv4:
		if err := fp.ip4.decodeFromBytes(fp.eth.payload); err != nil {
			return err
		}
		s.Tuple.SrcIP, s.Tuple.DstIP = fp.ip4.SrcIP, fp.ip4.DstIP
		s.TTL = fp.ip4.TTL
		s.IPLen = int(fp.ip4.Length)
		proto = fp.ip4.Protocol
		if fp.ip4.FragOffset != 0 || proto != IPProtocolTCP && proto != IPProtocolUDP && proto != IPProtocolICMPv4 {
			// A non-first fragment carries no transport header, whatever
			// the protocol; an unsupported protocol has none we read.
			s.Tuple.Proto = proto
			s.HasIP = true
			return nil
		}
		payload = fp.ip4.payload
	case etherTypeIPv6:
		if err := fp.ip6.decodeFromBytes(fp.eth.payload); err != nil {
			return err
		}
		s.Tuple.SrcIP, s.Tuple.DstIP = fp.ip6.SrcIP, fp.ip6.DstIP
		s.TTL = fp.ip6.HopLimit
		s.IPLen = ipv6HeaderLen + int(fp.ip6.Length)
		proto = fp.ip6.NextHeader
		payload = fp.ip6.payload
	default:
		return ErrNotIP
	}
	s.HasIP = true
	s.Tuple.Proto = proto

	switch proto {
	case IPProtocolTCP:
		if err := fp.tcp.decodeFromBytes(payload); err != nil {
			return err
		}
		s.HasTCP = true
		s.Tuple.SrcPort, s.Tuple.DstPort = fp.tcp.SrcPort, fp.tcp.DstPort
		s.TCPFlags = fp.tcp.Flags
		s.PayloadLen = len(fp.tcp.payload)
	case IPProtocolUDP:
		if err := fp.udp.decodeFromBytes(payload); err != nil {
			return err
		}
		s.HasUDP = true
		s.Tuple.SrcPort, s.Tuple.DstPort = fp.udp.SrcPort, fp.udp.DstPort
		s.PayloadLen = len(fp.udp.payload)
		if fp.udp.SrcPort == PortDNS || fp.udp.DstPort == PortDNS {
			fp.peekDNS(fp.udp.payload, s)
		}
	case IPProtocolICMPv4:
		if err := fp.icmp.decodeFromBytes(payload); err != nil {
			return err
		}
		s.HasICMP = true
		s.PayloadLen = len(fp.icmp.payload)
	default:
		s.PayloadLen = len(payload)
	}
	return nil
}

// peekDNS extracts the DNS quick-look fields without allocating: header
// flags, answer count, and the first question's QTYPE (skipping its name
// labels in place).
func (fp *FlowParser) peekDNS(msg []byte, s *Summary) {
	if len(msg) < dnsHeaderLen {
		return
	}
	s.IsDNS = true
	s.DNSMsgLen = len(msg)
	flags := uint16(msg[2])<<8 | uint16(msg[3])
	s.DNSResponse = flags&dnsFlagQR != 0
	s.DNSAnswerCnt = int(msg[6])<<8 | int(msg[7])
	qd := int(msg[4])<<8 | int(msg[5])
	if qd == 0 {
		return
	}
	// Skip the first question's name (labels or a compression pointer).
	off := dnsHeaderLen
	for off < len(msg) {
		b := msg[off]
		if b == 0 {
			off++
			break
		}
		if b&0xc0 == 0xc0 {
			off += 2
			break
		}
		off += 1 + int(b)
	}
	if off+2 <= len(msg) {
		s.DNSQueryType = DNSType(uint16(msg[off])<<8 | uint16(msg[off+1]))
	}
}
