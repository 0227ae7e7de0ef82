package packet

import (
	"encoding/binary"
	"fmt"
)

// MACAddr is a 48-bit Ethernet hardware address.
type MACAddr [6]byte

// String renders the conventional colon-hex form.
func (m MACAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// EtherType values understood by the decoder.
type EtherType uint16

const (
	EtherTypeIPv4 EtherType = 0x0800
	etherTypeIPv6 EtherType = 0x86dd
)

const ethernetHeaderLen = 14

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	DstMAC, SrcMAC MACAddr
	EtherType      EtherType
	payload        []byte
}

// decodeFromBytes parses the header from data; the payload aliases data.
func (e *Ethernet) decodeFromBytes(data []byte) error {
	if len(data) < ethernetHeaderLen {
		return fmt.Errorf("%w: ethernet needs %d bytes, have %d", errTruncated, ethernetHeaderLen, len(data))
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	e.EtherType = EtherType(binary.BigEndian.Uint16(data[12:14]))
	e.payload = data[ethernetHeaderLen:]
	return nil
}

// SerializeTo prepends the header to b.
func (e *Ethernet) SerializeTo(b *SerializeBuffer) error {
	hdr, err := b.PrependBytes(ethernetHeaderLen)
	if err != nil {
		return err
	}
	copy(hdr[0:6], e.DstMAC[:])
	copy(hdr[6:12], e.SrcMAC[:])
	binary.BigEndian.PutUint16(hdr[12:14], uint16(e.EtherType))
	return nil
}
