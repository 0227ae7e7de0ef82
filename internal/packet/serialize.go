package packet

import (
	"fmt"
	"net/netip"
)

// SerializeBuffer accumulates wire bytes back-to-front so that inner layers
// are written first and outer layers can compute lengths/checksums over
// them — the gopacket serialization idiom.
type SerializeBuffer struct {
	buf   []byte // full backing array
	start int    // first valid byte
	// pseudo-header addresses for transport checksums
	ckSrc, ckDst netip.Addr
	ckSet        bool
}

// NewSerializeBuffer returns a buffer with the given headroom capacity.
func NewSerializeBuffer() *SerializeBuffer {
	const defaultCap = 2048
	return &SerializeBuffer{buf: make([]byte, defaultCap), start: defaultCap}
}

// Bytes returns the currently serialized contents.
func (b *SerializeBuffer) Bytes() []byte { return b.buf[b.start:] }

// Clear resets the buffer for reuse, keeping the backing array.
func (b *SerializeBuffer) Clear() {
	b.start = len(b.buf)
	b.ckSet = false
}

// PrependBytes makes room for n bytes in front of the current contents and
// returns the slice to fill in.
func (b *SerializeBuffer) PrependBytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("packet: prepend %d bytes", n)
	}
	if b.start < n {
		grown := make([]byte, len(b.buf)*2+n)
		off := len(grown) - len(b.Bytes())
		copy(grown[off:], b.Bytes())
		b.start = off
		b.buf = grown
	}
	b.start -= n
	return b.buf[b.start : b.start+n], nil
}

// SetNetworkLayerForChecksum records the pseudo-header addresses that
// transport layers use when computing checksums.
func (b *SerializeBuffer) SetNetworkLayerForChecksum(src, dst netip.Addr) {
	b.ckSrc, b.ckDst = src, dst
	b.ckSet = true
}

func (b *SerializeBuffer) checksumAddrs() (src, dst netip.Addr, ok bool) {
	return b.ckSrc, b.ckDst, b.ckSet
}
