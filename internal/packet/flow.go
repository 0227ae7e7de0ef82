package packet

import (
	"fmt"
	"net/netip"
)

// FiveTuple is the canonical flow key used across campuslab: transport
// protocol plus source/destination address and port. It is comparable and
// therefore usable directly as a map key.
type FiveTuple struct {
	Proto   IPProtocol
	SrcIP   netip.Addr
	DstIP   netip.Addr
	SrcPort uint16
	DstPort uint16
}

// String renders "TCP 10.1.2.3:443 > 10.9.8.7:55123".
func (f FiveTuple) String() string {
	return fmt.Sprintf("%v %s:%d > %s:%d", f.Proto, f.SrcIP, f.SrcPort, f.DstIP, f.DstPort)
}

// reverse returns the tuple of the opposite direction.
func (f FiveTuple) reverse() FiveTuple {
	return FiveTuple{
		Proto: f.Proto,
		SrcIP: f.DstIP, DstIP: f.SrcIP,
		SrcPort: f.DstPort, DstPort: f.SrcPort,
	}
}

// Canonical returns the direction-independent form of the tuple: the
// endpoint with the lower (addr, port) ordering is placed in the source
// position. Both directions of a connection canonicalize identically.
func (f FiveTuple) Canonical() FiveTuple {
	if f.less() {
		return f
	}
	return f.reverse()
}

func (f FiveTuple) less() bool {
	switch c := f.SrcIP.Compare(f.DstIP); {
	case c < 0:
		return true
	case c > 0:
		return false
	default:
		return f.SrcPort <= f.DstPort
	}
}

// Hash returns a 64-bit FNV-1a style hash of the tuple, identical for both
// directions (it hashes the canonical form). Used by sketches and sharding.
func (f FiveTuple) Hash() uint64 {
	c := f.Canonical()
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(byte(c.Proto))
	for _, a := range []netip.Addr{c.SrcIP, c.DstIP} {
		b := a.As16()
		for _, x := range b {
			mix(x)
		}
	}
	mix(byte(c.SrcPort >> 8))
	mix(byte(c.SrcPort))
	mix(byte(c.DstPort >> 8))
	mix(byte(c.DstPort))
	return h
}
