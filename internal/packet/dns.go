package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// DNSType is a DNS RR/QTYPE code.
type DNSType uint16

// Record types used by campus traffic and the amplification attack model.
const (
	DNSTypeA     DNSType = 1
	DNSTypeNS    DNSType = 2
	dnsTypeCNAME DNSType = 5
	dnsTypeSOA   DNSType = 6
	dnsTypePTR   DNSType = 12
	DNSTypeMX    DNSType = 15
	DNSTypeTXT   DNSType = 16
	DNSTypeAAAA  DNSType = 28
	DNSTypeANY   DNSType = 255
)

// String returns the RR type mnemonic.
func (t DNSType) String() string {
	switch t {
	case DNSTypeA:
		return "A"
	case DNSTypeNS:
		return "NS"
	case dnsTypeCNAME:
		return "CNAME"
	case dnsTypeSOA:
		return "SOA"
	case dnsTypePTR:
		return "PTR"
	case DNSTypeMX:
		return "MX"
	case DNSTypeTXT:
		return "TXT"
	case DNSTypeAAAA:
		return "AAAA"
	case DNSTypeANY:
		return "ANY"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// DNSQuestion is one entry of the question section.
type DNSQuestion struct {
	Name  string
	Type  DNSType
	Class uint16
}

// DNSResourceRecord is one answer/authority/additional record.
type DNSResourceRecord struct {
	Name  string
	Type  DNSType
	Class uint16
	TTL   uint32
	Data  []byte // raw RDATA
}

// DNS header flag masks.
const (
	dnsFlagQR = 1 << 15
	dnsFlagAA = 1 << 10
	dnsFlagTC = 1 << 9
	dnsFlagRD = 1 << 8
	dnsFlagRA = 1 << 7
)

// DNS is a DNS message (header + all four sections). RDATA is kept raw.
type DNS struct {
	ID             uint16
	QR             bool // true = response
	Opcode         uint8
	AA, TC, RD, RA bool
	ResponseCode   uint8
	Questions      []DNSQuestion
	Answers        []DNSResourceRecord
	Authorities    []DNSResourceRecord
	Additionals    []DNSResourceRecord
	decodedSize    int
}

const dnsHeaderLen = 12

// maxDNSNameLen bounds name decompression to defeat pointer loops.
const maxDNSNameLen = 255

// decodeFromBytes parses a whole message from data, including compressed-name
// handling with loop protection.
func (d *DNS) decodeFromBytes(data []byte) error {
	if len(data) < dnsHeaderLen {
		return fmt.Errorf("%w: dns needs %d bytes, have %d", errTruncated, dnsHeaderLen, len(data))
	}
	d.ID = binary.BigEndian.Uint16(data[0:2])
	flags := binary.BigEndian.Uint16(data[2:4])
	d.QR = flags&dnsFlagQR != 0
	d.Opcode = uint8(flags >> 11 & 0xf)
	d.AA = flags&dnsFlagAA != 0
	d.TC = flags&dnsFlagTC != 0
	d.RD = flags&dnsFlagRD != 0
	d.RA = flags&dnsFlagRA != 0
	d.ResponseCode = uint8(flags & 0xf)
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	ns := int(binary.BigEndian.Uint16(data[8:10]))
	ar := int(binary.BigEndian.Uint16(data[10:12]))

	d.Questions = d.Questions[:0]
	d.Answers = d.Answers[:0]
	d.Authorities = d.Authorities[:0]
	d.Additionals = d.Additionals[:0]

	off := dnsHeaderLen
	var err error
	for i := 0; i < qd; i++ {
		var q DNSQuestion
		q.Name, off, err = decodeDNSName(data, off)
		if err != nil {
			return err
		}
		if off+4 > len(data) {
			return fmt.Errorf("%w: dns question fixed part", errTruncated)
		}
		q.Type = DNSType(binary.BigEndian.Uint16(data[off : off+2]))
		q.Class = binary.BigEndian.Uint16(data[off+2 : off+4])
		off += 4
		d.Questions = append(d.Questions, q)
	}
	sections := []struct {
		n   int
		dst *[]DNSResourceRecord
	}{{an, &d.Answers}, {ns, &d.Authorities}, {ar, &d.Additionals}}
	for _, sec := range sections {
		for i := 0; i < sec.n; i++ {
			var rr DNSResourceRecord
			rr.Name, off, err = decodeDNSName(data, off)
			if err != nil {
				return err
			}
			if off+10 > len(data) {
				return fmt.Errorf("%w: dns rr fixed part", errTruncated)
			}
			rr.Type = DNSType(binary.BigEndian.Uint16(data[off : off+2]))
			rr.Class = binary.BigEndian.Uint16(data[off+2 : off+4])
			rr.TTL = binary.BigEndian.Uint32(data[off+4 : off+8])
			rdlen := int(binary.BigEndian.Uint16(data[off+8 : off+10]))
			off += 10
			if off+rdlen > len(data) {
				return fmt.Errorf("%w: dns rdata %d bytes", errTruncated, rdlen)
			}
			rr.Data = data[off : off+rdlen]
			off += rdlen
			*sec.dst = append(*sec.dst, rr)
		}
	}
	d.decodedSize = off
	return nil
}

// decodeDNSName decodes a possibly-compressed name at data[off:], returning
// the dotted name and the offset just past the name's in-place bytes.
func decodeDNSName(data []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	end := off
	hops := 0
	for {
		if off >= len(data) {
			return "", 0, fmt.Errorf("%w: dns name", errTruncated)
		}
		b := data[off]
		switch {
		case b == 0:
			if !jumped {
				end = off + 1
			}
			name := sb.String()
			if name == "" {
				name = "."
			}
			return name, end, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(data) {
				return "", 0, fmt.Errorf("%w: dns compression pointer", errTruncated)
			}
			ptr := int(binary.BigEndian.Uint16(data[off:off+2]) & 0x3fff)
			if !jumped {
				end = off + 2
				jumped = true
			}
			if hops++; hops > 16 || ptr >= len(data) {
				return "", 0, fmt.Errorf("%w: dns compression loop", errMalformed)
			}
			off = ptr
		case b&0xc0 != 0:
			return "", 0, fmt.Errorf("%w: dns label flag %#x", errMalformed, b&0xc0)
		default:
			l := int(b)
			if off+1+l > len(data) {
				return "", 0, fmt.Errorf("%w: dns label", errTruncated)
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			if sb.Len()+l > maxDNSNameLen {
				return "", 0, fmt.Errorf("%w: dns name too long", errMalformed)
			}
			sb.Write(data[off+1 : off+1+l])
			off += 1 + l
		}
	}
}

// encodeDNSName appends the uncompressed wire form of name to dst.
func encodeDNSName(dst []byte, name string) ([]byte, error) {
	if name == "." || name == "" {
		return append(dst, 0), nil
	}
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		if len(label) == 0 || len(label) > 63 {
			return nil, fmt.Errorf("%w: dns label %q", errMalformed, label)
		}
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
	}
	return append(dst, 0), nil
}

// SerializeTo prepends the message to b (no name compression).
func (d *DNS) SerializeTo(b *SerializeBuffer) error {
	var msg []byte
	var hdr [dnsHeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:2], d.ID)
	var flags uint16
	if d.QR {
		flags |= dnsFlagQR
	}
	flags |= uint16(d.Opcode&0xf) << 11
	if d.AA {
		flags |= dnsFlagAA
	}
	if d.TC {
		flags |= dnsFlagTC
	}
	if d.RD {
		flags |= dnsFlagRD
	}
	if d.RA {
		flags |= dnsFlagRA
	}
	flags |= uint16(d.ResponseCode & 0xf)
	binary.BigEndian.PutUint16(hdr[2:4], flags)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(len(d.Questions)))
	binary.BigEndian.PutUint16(hdr[6:8], uint16(len(d.Answers)))
	binary.BigEndian.PutUint16(hdr[8:10], uint16(len(d.Authorities)))
	binary.BigEndian.PutUint16(hdr[10:12], uint16(len(d.Additionals)))
	msg = append(msg, hdr[:]...)
	var err error
	for _, q := range d.Questions {
		if msg, err = encodeDNSName(msg, q.Name); err != nil {
			return err
		}
		msg = binary.BigEndian.AppendUint16(msg, uint16(q.Type))
		msg = binary.BigEndian.AppendUint16(msg, q.Class)
	}
	for _, sec := range [][]DNSResourceRecord{d.Answers, d.Authorities, d.Additionals} {
		for _, rr := range sec {
			if msg, err = encodeDNSName(msg, rr.Name); err != nil {
				return err
			}
			msg = binary.BigEndian.AppendUint16(msg, uint16(rr.Type))
			msg = binary.BigEndian.AppendUint16(msg, rr.Class)
			msg = binary.BigEndian.AppendUint32(msg, rr.TTL)
			msg = binary.BigEndian.AppendUint16(msg, uint16(len(rr.Data)))
			msg = append(msg, rr.Data...)
		}
	}
	dst, err := b.PrependBytes(len(msg))
	if err != nil {
		return err
	}
	copy(dst, msg)
	return nil
}
