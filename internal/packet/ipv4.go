package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPProtocol is the IPv4 protocol / IPv6 next-header number.
type IPProtocol uint8

const (
	IPProtocolICMPv4 IPProtocol = 1
	IPProtocolTCP    IPProtocol = 6
	IPProtocolUDP    IPProtocol = 17
	ipProtocolICMPv6 IPProtocol = 58
)

// String returns the protocol name.
func (p IPProtocol) String() string {
	switch p {
	case IPProtocolICMPv4:
		return "ICMPv4"
	case IPProtocolTCP:
		return "TCP"
	case IPProtocolUDP:
		return "UDP"
	case ipProtocolICMPv6:
		return "ICMPv6"
	default:
		return fmt.Sprintf("proto-%d", uint8(p))
	}
}

const ipv4MinHeaderLen = 20

// IPv4 is an IPv4 header.
type IPv4 struct {
	TOS        uint8
	Length     uint16 // total length incl. header
	ID         uint16
	Flags      uint8 // 3 bits: reserved, DF, MF
	FragOffset uint16
	TTL        uint8
	Protocol   IPProtocol
	Checksum   uint16
	SrcIP      netip.Addr
	DstIP      netip.Addr
	Options    []byte
	payload    []byte
}

// IPv4DontFragment is the DF bit within IPv4.Flags.
const IPv4DontFragment = 0x2

// decodeFromBytes parses the header from data; Options and the payload
// alias data.
func (ip *IPv4) decodeFromBytes(data []byte) error {
	if len(data) < ipv4MinHeaderLen {
		return fmt.Errorf("%w: ipv4 needs %d bytes, have %d", errTruncated, ipv4MinHeaderLen, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return fmt.Errorf("%w: ip version %d in ipv4 decoder", errMalformed, v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < ipv4MinHeaderLen {
		return fmt.Errorf("%w: ihl %d", errMalformed, ihl)
	}
	if len(data) < ihl {
		return fmt.Errorf("%w: ipv4 header len %d, have %d", errTruncated, ihl, len(data))
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOffset = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	var src, dst [4]byte
	copy(src[:], data[12:16])
	copy(dst[:], data[16:20])
	ip.SrcIP = netip.AddrFrom4(src)
	ip.DstIP = netip.AddrFrom4(dst)
	ip.Options = data[ipv4MinHeaderLen:ihl]
	end := int(ip.Length)
	if end < ihl {
		return fmt.Errorf("%w: total length %d < header %d", errMalformed, end, ihl)
	}
	if end > len(data) {
		// Snap to what we actually have; capture may have snapped the frame.
		end = len(data)
	}
	ip.payload = data[ihl:end]
	return nil
}

// SerializeTo prepends the header to b. Length and Checksum are
// computed from the buffer contents, overwriting any caller-set values.
func (ip *IPv4) SerializeTo(b *SerializeBuffer) error {
	optLen := len(ip.Options)
	if optLen%4 != 0 {
		return fmt.Errorf("%w: ipv4 options not 32-bit aligned (%d bytes)", errMalformed, optLen)
	}
	hlen := ipv4MinHeaderLen + optLen
	payloadLen := len(b.Bytes())
	hdr, err := b.PrependBytes(hlen)
	if err != nil {
		return err
	}
	hdr[0] = 0x40 | uint8(hlen/4)
	hdr[1] = ip.TOS
	binary.BigEndian.PutUint16(hdr[2:4], uint16(hlen+payloadLen))
	binary.BigEndian.PutUint16(hdr[4:6], ip.ID)
	binary.BigEndian.PutUint16(hdr[6:8], uint16(ip.Flags)<<13|ip.FragOffset&0x1fff)
	hdr[8] = ip.TTL
	hdr[9] = uint8(ip.Protocol)
	hdr[10], hdr[11] = 0, 0
	src, dst := ip.SrcIP.As4(), ip.DstIP.As4()
	copy(hdr[12:16], src[:])
	copy(hdr[16:20], dst[:])
	copy(hdr[20:], ip.Options)
	binary.BigEndian.PutUint16(hdr[10:12], internetChecksum(hdr[:hlen]))
	return nil
}

// pseudoHeaderChecksum computes the IPv4/IPv6 pseudo-header partial sum used
// by TCP/UDP checksums.
func pseudoHeaderChecksum(src, dst netip.Addr, proto IPProtocol, length int) uint32 {
	var sum uint32
	addAddr := func(a netip.Addr) {
		if a.Is4() {
			b := a.As4()
			sum += uint32(binary.BigEndian.Uint16(b[0:2]))
			sum += uint32(binary.BigEndian.Uint16(b[2:4]))
		} else {
			b := a.As16()
			for i := 0; i < 16; i += 2 {
				sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
			}
		}
	}
	addAddr(src)
	addAddr(dst)
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// internetChecksum computes the RFC 1071 one's-complement checksum of data.
func internetChecksum(data []byte) uint16 {
	return finishChecksum(sumBytes(0, data))
}

func sumBytes(sum uint32, data []byte) uint32 {
	n := len(data) &^ 1
	for i := 0; i < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	return sum
}

func finishChecksum(sum uint32) uint16 {
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}
