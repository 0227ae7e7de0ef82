package privacy

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"

	"campuslab/internal/packet"
)

// PayloadMode selects what happens to application payload bytes at
// collection time.
type PayloadMode uint8

// Payload handling modes, from most to least revealing.
const (
	// payloadKeep stores full payloads (the paper's full-packet-capture
	// default: collection is campus-internal, see §3).
	payloadKeep PayloadMode = iota
	// payloadHash replaces the payload with its 8-byte SHA-256 prefix,
	// preserving equality/dedup analysis but not content.
	payloadHash
	// PayloadStrip truncates to transport headers.
	PayloadStrip
)

// String returns the mode name.
func (m PayloadMode) String() string {
	switch m {
	case payloadKeep:
		return "keep"
	case payloadHash:
		return "hash"
	case PayloadStrip:
		return "strip"
	default:
		return fmt.Sprintf("mode-%d", uint8(m))
	}
}

// AnonScope selects which addresses get anonymized.
type AnonScope uint8

// Anonymization scopes.
const (
	// anonNone stores addresses as seen (internal-only data stores).
	anonNone AnonScope = iota
	// AnonInternal anonymizes campus addresses only — protects users
	// while keeping external infrastructure analyzable.
	AnonInternal
	// AnonAll anonymizes every address (datasets leaving the campus).
	AnonAll
)

// String returns the scope name.
func (s AnonScope) String() string {
	switch s {
	case anonNone:
		return "none"
	case AnonInternal:
		return "internal"
	case AnonAll:
		return "all"
	default:
		return fmt.Sprintf("scope-%d", uint8(s))
	}
}

// Policy is one collection policy: what the IT organization decided may be
// collected and in what form (§5 "Revisiting data privacy": the IT
// organization decides "what data can/should not be collected and/or
// stored (and in what form)").
type Policy struct {
	Name string
	// Payload selects payload handling.
	Payload PayloadMode
	// Scope selects address anonymization.
	Scope AnonScope
	// CampusPrefix identifies internal addresses for AnonInternal.
	CampusPrefix netip.Prefix
	// DropDNSNames redacts DNS question names to their public suffix.
	DropDNSNames bool
}

// Enforcer applies a Policy to captured frames. It rewrites a copy of each
// frame; originals are never modified. An Enforcer is not safe for
// concurrent use: its counters, its parser and its output chunk are
// unsynchronised, so each collector goroutine needs its own.
type Enforcer struct {
	policy Policy
	anon   *Anonymizer
	parser *packet.FlowParser

	// chunk is the arena copyFrame cuts output frames from; a full chunk
	// is replaced, never reused.
	chunk []byte

	processed uint64
	bytesIn   uint64
	bytesOut  uint64
}

// Output chunk sizing: Apply copies a frame into the current chunk, so a
// 64 KiB chunk serves a few hundred small frames with one allocation. A
// frame over an eighth of a chunk gets its own buffer, which bounds the
// tail a replaced chunk can waste.
const (
	anonChunk    = 64 << 10
	anonOwnFrame = anonChunk / 8
)

// NewEnforcer builds an enforcer; secret keys the anonymizer and must be
// managed by the IT organization.
func NewEnforcer(policy Policy, secret []byte) (*Enforcer, error) {
	anon, err := NewAnonymizer(secret)
	if err != nil {
		return nil, err
	}
	if policy.Scope == AnonInternal && !policy.CampusPrefix.IsValid() {
		return nil, fmt.Errorf("privacy: AnonInternal requires CampusPrefix")
	}
	return &Enforcer{policy: policy, anon: anon, parser: packet.NewFlowParser()}, nil
}

// Apply transforms one Ethernet frame according to the policy, returning a
// new frame (the input is not modified). Non-IP frames pass through
// unchanged. Malformed frames are returned as-is with an error so callers
// can quarantine them. The result may share a backing array with other
// results but never overlaps one, and its capacity equals its length, so
// appending to it reallocates instead of writing into a neighbour.
func (e *Enforcer) Apply(frame []byte) ([]byte, error) {
	e.processed++
	e.bytesIn += uint64(len(frame))
	out := e.copyFrame(frame)

	var s packet.Summary
	if err := e.parser.Parse(frame, &s); err != nil {
		e.bytesOut += uint64(len(out))
		if err == packet.ErrNotIP {
			return out, nil
		}
		return out, fmt.Errorf("privacy: unparseable frame passed through: %w", err)
	}

	if e.policy.Scope != anonNone && s.Tuple.SrcIP.Is4() {
		e.rewriteIPv4Addrs(out, s)
	}
	if e.policy.Payload != payloadKeep {
		out = e.handlePayload(out, s)
		out = out[:len(out):len(out)]
	}
	e.bytesOut += uint64(len(out))
	return out, nil
}

// copyFrame returns a copy of frame cut from the current chunk as
// chunk[off:off+n:off+n]. The capacity cap is what lets handlePayload
// append a hash to one frame without running into the next, the rule
// frame.DecodeRecords' batch arena follows too. A chunk stays reachable
// while any frame cut from it does.
func (e *Enforcer) copyFrame(frame []byte) []byte {
	n := len(frame)
	if n > anonOwnFrame {
		out := make([]byte, n)
		copy(out, frame)
		return out
	}
	if cap(e.chunk)-len(e.chunk) < n {
		e.chunk = make([]byte, 0, anonChunk)
	}
	off := len(e.chunk)
	e.chunk = append(e.chunk, frame...)
	return e.chunk[off : off+n : off+n]
}

// rewriteIPv4Addrs replaces addresses in the IPv4 header in place and
// fixes the header checksum. Transport checksums are recomputed lazily by
// consumers that need them; the store keeps the frame as policy output.
func (e *Enforcer) rewriteIPv4Addrs(frame []byte, s packet.Summary) {
	const ethLen = 14
	if len(frame) < ethLen+20 {
		return
	}
	iph := frame[ethLen:]
	ihl := int(iph[0]&0x0f) * 4
	if len(iph) < ihl {
		return
	}
	rewrite := func(addr netip.Addr, off int) {
		if e.policy.Scope == AnonInternal && !e.policy.CampusPrefix.Contains(addr) {
			return
		}
		anon := e.anon.Anonymize(addr).As4()
		copy(iph[off:off+4], anon[:])
	}
	rewrite(s.Tuple.SrcIP, 12)
	rewrite(s.Tuple.DstIP, 16)
	// Recompute the IPv4 header checksum.
	iph[10], iph[11] = 0, 0
	var sum uint32
	for i := 0; i < ihl; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(iph[i : i+2]))
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	binary.BigEndian.PutUint16(iph[10:12], ^uint16(sum))
}

// handlePayload strips or hashes the transport payload.
func (e *Enforcer) handlePayload(frame []byte, s packet.Summary) []byte {
	if s.PayloadLen == 0 {
		return frame
	}
	// DNS payloads are metadata, not user content: always kept (subject
	// to DropDNSNames, which is handled at feature level).
	if s.IsDNS {
		return frame
	}
	cut := len(frame) - s.PayloadLen
	if cut < 0 || cut > len(frame) {
		return frame
	}
	switch e.policy.Payload {
	case PayloadStrip:
		return frame[:cut]
	case payloadHash:
		h := sha256.Sum256(frame[cut:])
		out := append(frame[:cut], h[:8]...)
		return out
	default:
		return frame
	}
}

// Stats reports enforcement volume: packets processed and the byte
// reduction achieved by the policy.
func (e *Enforcer) Stats() (processed, bytesIn, bytesOut uint64) {
	return e.processed, e.bytesIn, e.bytesOut
}

// kAnonymity checks the k-anonymity of a released dataset under a
// quasi-identifier function: every group must contain at least k records.
// It returns the smallest group size and the identifiers of violating
// groups (capped at 10 for reporting).
func kAnonymity[T any](records []T, quasiID func(T) string, k int) (minGroup int, violations []string) {
	if len(records) == 0 {
		return 0, nil
	}
	groups := make(map[string]int)
	for _, r := range records {
		groups[quasiID(r)]++
	}
	minGroup = len(records) + 1
	for id, n := range groups {
		if n < minGroup {
			minGroup = n
		}
		if n < k {
			violations = append(violations, id)
		}
	}
	sort.Strings(violations)
	if len(violations) > 10 {
		violations = violations[:10]
	}
	return minGroup, violations
}
