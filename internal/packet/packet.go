// Package packet implements the wire-format substrate for campuslab: the
// Ethernet, IPv4/IPv6, TCP/UDP/ICMPv4 and DNS headers, their serializers
// (the traffic generator writes every frame with them) and FlowParser, the
// allocation-free decoder that capture, storage and the data plane read
// frames through.
//
// The design follows the layering idiom of gopacket: every header decodes
// itself from bytes, and serialization runs back to front so that lengths
// and checksums can be fixed up. Unlike gopacket, the set of layers is
// closed (campus traffic only), which lets the fast path avoid all
// interface allocation.
package packet

import "errors"

// Decode errors. Decoders wrap these so malformed traffic can be
// classified without string matching.
var (
	errTruncated = errors.New("packet: truncated layer")
	errMalformed = errors.New("packet: malformed layer")
)
