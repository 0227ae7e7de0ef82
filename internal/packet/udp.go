package packet

import (
	"encoding/binary"
	"fmt"
)

const udpHeaderLen = 8

// Well-known UDP/TCP service ports the feature extractors care about.
const (
	PortDNS   = 53
	PortHTTPS = 443
	PortNTP   = 123
	PortSSH   = 22
	PortIMAPS = 993
)

// UDP is a UDP datagram header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
	payload          []byte
}

// decodeFromBytes parses the header from data; the payload aliases data.
func (u *UDP) decodeFromBytes(data []byte) error {
	if len(data) < udpHeaderLen {
		return fmt.Errorf("%w: udp needs %d bytes, have %d", errTruncated, udpHeaderLen, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	if int(u.Length) < udpHeaderLen {
		return fmt.Errorf("%w: udp length %d", errMalformed, u.Length)
	}
	end := int(u.Length)
	if end > len(data) {
		end = len(data)
	}
	u.payload = data[udpHeaderLen:end]
	return nil
}

// SerializeTo prepends the header to b. Length and Checksum are
// computed from the buffer contents.
func (u *UDP) SerializeTo(b *SerializeBuffer) error {
	dgramLen := udpHeaderLen + len(b.Bytes())
	hdr, err := b.PrependBytes(udpHeaderLen)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint16(hdr[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], u.DstPort)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(dgramLen))
	hdr[6], hdr[7] = 0, 0
	if src, dst, ok := b.checksumAddrs(); ok {
		sum := pseudoHeaderChecksum(src, dst, IPProtocolUDP, dgramLen)
		sum = sumBytes(sum, b.Bytes())
		ck := finishChecksum(sum)
		if ck == 0 {
			ck = 0xffff // RFC 768: transmitted zero means "no checksum"
		}
		binary.BigEndian.PutUint16(hdr[6:8], ck)
	}
	return nil
}

// icmpv4 is an ICMP echo/unreachable style message header.
type icmpv4 struct {
	Type, Code uint8
	Checksum   uint16
	ID, Seq    uint16 // meaningful for echo; raw rest-of-header otherwise
	payload    []byte
}

const icmpv4HeaderLen = 8

// decodeFromBytes parses the header from data; the payload aliases data.
func (ic *icmpv4) decodeFromBytes(data []byte) error {
	if len(data) < icmpv4HeaderLen {
		return fmt.Errorf("%w: icmpv4 needs %d bytes, have %d", errTruncated, icmpv4HeaderLen, len(data))
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = binary.BigEndian.Uint16(data[2:4])
	ic.ID = binary.BigEndian.Uint16(data[4:6])
	ic.Seq = binary.BigEndian.Uint16(data[6:8])
	ic.payload = data[icmpv4HeaderLen:]
	return nil
}
