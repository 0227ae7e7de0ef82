package packet

import (
	"encoding/binary"
	"fmt"
)

const tcpMinHeaderLen = 20

// TCPFlags is the 8-bit TCP flag field.
type TCPFlags uint8

// TCP flag bits.
const (
	TCPFin TCPFlags = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	tcpUrg
	tcpEce
	tcpCwr
)

// Has reports whether all bits in f are set.
func (fl TCPFlags) Has(f TCPFlags) bool { return fl&f == f }

// String renders the set flags, e.g. "SYN|ACK".
func (fl TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{TCPSyn, "SYN"}, {TCPAck, "ACK"}, {TCPFin, "FIN"}, {TCPRst, "RST"},
		{TCPPsh, "PSH"}, {tcpUrg, "URG"}, {tcpEce, "ECE"}, {tcpCwr, "CWR"},
	}
	s := ""
	for _, n := range names {
		if fl.Has(n.bit) {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// TCPOption is a single decoded TCP option.
type TCPOption struct {
	Kind uint8
	Data []byte // option payload, excluding kind and length bytes
}

// Well-known TCP option kinds.
const (
	tcpOptEndOfList = 0
	tcpOptNop       = 1
	tcpOptMSS       = 2
	tcpOptWScale    = 3
)

// TCP is a TCP segment header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8 // header length in 32-bit words
	Flags            TCPFlags
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []TCPOption
	payload          []byte
}

// decodeFromBytes parses the header from data; Options and the payload
// alias data.
func (t *TCP) decodeFromBytes(data []byte) error {
	if len(data) < tcpMinHeaderLen {
		return fmt.Errorf("%w: tcp needs %d bytes, have %d", errTruncated, tcpMinHeaderLen, len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOffset = data[12] >> 4
	hlen := int(t.DataOffset) * 4
	if hlen < tcpMinHeaderLen {
		return fmt.Errorf("%w: tcp data offset %d", errMalformed, t.DataOffset)
	}
	if len(data) < hlen {
		return fmt.Errorf("%w: tcp header len %d, have %d", errTruncated, hlen, len(data))
	}
	t.Flags = TCPFlags(data[13])
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = t.Options[:0]
	if err := t.decodeOptions(data[tcpMinHeaderLen:hlen]); err != nil {
		return err
	}
	t.payload = data[hlen:]
	return nil
}

func (t *TCP) decodeOptions(opts []byte) error {
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case tcpOptEndOfList:
			return nil
		case tcpOptNop:
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return fmt.Errorf("%w: tcp option %d missing length", errMalformed, kind)
			}
			olen := int(opts[1])
			if olen < 2 || olen > len(opts) {
				return fmt.Errorf("%w: tcp option %d length %d", errMalformed, kind, olen)
			}
			t.Options = append(t.Options, TCPOption{Kind: kind, Data: opts[2:olen]})
			opts = opts[olen:]
		}
	}
	return nil
}

// optionsWireLen returns the padded on-wire length of t.Options.
func (t *TCP) optionsWireLen() int {
	n := 0
	for _, o := range t.Options {
		n += 2 + len(o.Data)
	}
	return (n + 3) &^ 3 // pad to 32-bit boundary
}

// SerializeTo prepends the header to b. DataOffset and Checksum are
// computed; SetNetworkLayerForChecksum must have been called on the buffer
// (or the checksum is left zero).
func (t *TCP) SerializeTo(b *SerializeBuffer) error {
	optLen := t.optionsWireLen()
	hlen := tcpMinHeaderLen + optLen
	segLen := hlen + len(b.Bytes())
	hdr, err := b.PrependBytes(hlen)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint16(hdr[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], t.DstPort)
	binary.BigEndian.PutUint32(hdr[4:8], t.Seq)
	binary.BigEndian.PutUint32(hdr[8:12], t.Ack)
	hdr[12] = uint8(hlen/4) << 4
	hdr[13] = uint8(t.Flags)
	binary.BigEndian.PutUint16(hdr[14:16], t.Window)
	hdr[16], hdr[17] = 0, 0
	binary.BigEndian.PutUint16(hdr[18:20], t.Urgent)
	off := tcpMinHeaderLen
	for _, o := range t.Options {
		hdr[off] = o.Kind
		hdr[off+1] = uint8(2 + len(o.Data))
		copy(hdr[off+2:], o.Data)
		off += 2 + len(o.Data)
	}
	for ; off < hlen; off++ {
		hdr[off] = tcpOptEndOfList
	}
	if src, dst, ok := b.checksumAddrs(); ok {
		sum := pseudoHeaderChecksum(src, dst, IPProtocolTCP, segLen)
		sum = sumBytes(sum, b.Bytes())
		binary.BigEndian.PutUint16(hdr[16:18], finishChecksum(sum))
	}
	return nil
}
