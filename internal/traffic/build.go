package traffic

import (
	"net/netip"
	"time"

	"campuslab/internal/packet"
)

// frameBuilder serializes frames with a reusable buffer; one per generator.
type frameBuilder struct {
	buf *packet.SerializeBuffer
	eth packet.Ethernet
	ip  packet.IPv4
	tcp packet.TCP
	udp packet.UDP
}

func newFrameBuilder() *frameBuilder {
	return &frameBuilder{buf: packet.NewSerializeBuffer()}
}

// tcpFrame builds an Ethernet/IPv4/TCP frame. payloadLen bytes of opaque
// payload are appended (zero-filled; contents never matter to the stack,
// only sizes do).
func (fb *frameBuilder) tcpFrame(src, dst netip.Addr, sport, dport uint16, flags packet.TCPFlags, seq, ack uint32, payloadLen int) []byte {
	fb.tcp = packet.TCP{
		SrcPort: sport, DstPort: dport,
		Seq: seq, Ack: ack, Flags: flags, Window: 65535,
	}
	fb.stampIP(src, dst, packet.IPProtocolTCP)
	fb.buf.Clear()
	if payloadLen > 0 {
		p, _ := fb.buf.PrependBytes(payloadLen)
		clear(p)
	}
	fb.buf.SetNetworkLayerForChecksum(src, dst)
	if err := fb.tcp.SerializeTo(fb.buf); err != nil {
		panic(err) // builder invariants make this unreachable
	}
	return fb.finish()
}

// udpFrame builds an Ethernet/IPv4/UDP frame with an opaque payload.
func (fb *frameBuilder) udpFrame(src, dst netip.Addr, sport, dport uint16, payloadLen int) []byte {
	fb.udp = packet.UDP{SrcPort: sport, DstPort: dport}
	fb.stampIP(src, dst, packet.IPProtocolUDP)
	fb.buf.Clear()
	if payloadLen > 0 {
		p, _ := fb.buf.PrependBytes(payloadLen)
		clear(p)
	}
	fb.buf.SetNetworkLayerForChecksum(src, dst)
	if err := fb.udp.SerializeTo(fb.buf); err != nil {
		panic(err)
	}
	return fb.finish()
}

// dnsFrame builds an Ethernet/IPv4/UDP/DNS frame from a prepared message.
func (fb *frameBuilder) dnsFrame(src, dst netip.Addr, sport, dport uint16, msg *packet.DNS) []byte {
	fb.udp = packet.UDP{SrcPort: sport, DstPort: dport}
	fb.stampIP(src, dst, packet.IPProtocolUDP)
	fb.buf.Clear()
	fb.buf.SetNetworkLayerForChecksum(src, dst)
	if err := msg.SerializeTo(fb.buf); err != nil {
		panic(err)
	}
	if err := fb.udp.SerializeTo(fb.buf); err != nil {
		panic(err)
	}
	return fb.finish()
}

func (fb *frameBuilder) stampIP(src, dst netip.Addr, proto packet.IPProtocol) {
	fb.ip = packet.IPv4{TTL: 64, Protocol: proto, SrcIP: src, DstIP: dst, Flags: packet.IPv4DontFragment}
	srcMAC, dstMAC := macFor(src), macFor(dst)
	if !src.Is4() || src.As4()[0] != 10 {
		srcMAC = gatewayMAC
	}
	if !dst.Is4() || dst.As4()[0] != 10 {
		dstMAC = gatewayMAC
	}
	fb.eth = packet.Ethernet{SrcMAC: srcMAC, DstMAC: dstMAC, EtherType: packet.EtherTypeIPv4}
}

// finish serializes IP+Ethernet around the buffer's current transport
// contents and returns an owned copy of the frame.
func (fb *frameBuilder) finish() []byte {
	if err := fb.ip.SerializeTo(fb.buf); err != nil {
		panic(err)
	}
	if err := fb.eth.SerializeTo(fb.buf); err != nil {
		panic(err)
	}
	out := make([]byte, len(fb.buf.Bytes()))
	copy(out, fb.buf.Bytes())
	return out
}

// directionOf classifies a frame by its endpoints against the campus plan.
func directionOf(plan *AddressPlan, src, dst netip.Addr) Direction {
	in := plan.Contains(dst)
	out := plan.Contains(src)
	switch {
	case in && out:
		return dirInternal
	case out:
		return dirOutbound
	default:
		return DirInbound
	}
}

// emitter is a time-ordered sub-stream inside a generator: a single flow,
// an attack, or the flow-arrival process itself.
type emitter interface {
	// nextTS returns the timestamp of the emitter's next frame.
	nextTS() time.Duration
	// emit produces that frame (and/or schedules internal follow-ups),
	// returning false when the emitter is exhausted. emit may produce no
	// frame (f.Data == nil) when it only performed internal scheduling.
	emit(f *Frame) bool
}

// emitterHeap orders emitters by nextTS.
type emitterHeap []emitter

func (h emitterHeap) Len() int           { return len(h) }
func (h emitterHeap) Less(i, j int) bool { return h[i].nextTS() < h[j].nextTS() }
func (h emitterHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *emitterHeap) Push(x any)        { *h = append(*h, x.(emitter)) }
func (h *emitterHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
