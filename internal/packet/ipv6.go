package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

const ipv6HeaderLen = 40

// ipv6 is an IPv6 fixed header. Extension headers are not modeled; campus
// traffic in the simulator does not emit them, and FlowParser counts a
// packet that carries one as IP-only.
type ipv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	Length       uint16 // payload length
	NextHeader   IPProtocol
	HopLimit     uint8
	SrcIP        netip.Addr
	DstIP        netip.Addr
	payload      []byte
}

// decodeFromBytes parses the header from data; the payload aliases data.
func (ip *ipv6) decodeFromBytes(data []byte) error {
	if len(data) < ipv6HeaderLen {
		return fmt.Errorf("%w: ipv6 needs %d bytes, have %d", errTruncated, ipv6HeaderLen, len(data))
	}
	if v := data[0] >> 4; v != 6 {
		return fmt.Errorf("%w: ip version %d in ipv6 decoder", errMalformed, v)
	}
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.FlowLabel = binary.BigEndian.Uint32(data[0:4]) & 0xfffff
	ip.Length = binary.BigEndian.Uint16(data[4:6])
	ip.NextHeader = IPProtocol(data[6])
	ip.HopLimit = data[7]
	var src, dst [16]byte
	copy(src[:], data[8:24])
	copy(dst[:], data[24:40])
	ip.SrcIP = netip.AddrFrom16(src)
	ip.DstIP = netip.AddrFrom16(dst)
	end := ipv6HeaderLen + int(ip.Length)
	if end > len(data) {
		end = len(data)
	}
	ip.payload = data[ipv6HeaderLen:end]
	return nil
}
