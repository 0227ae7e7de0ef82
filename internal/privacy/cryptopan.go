// Package privacy implements the "privacy-preserving data collection" stage
// of the paper's Figure 1: prefix-preserving IP anonymization (the
// Crypto-PAn construction), payload handling policies, a collection policy
// engine deciding what may be stored in what form, and a differentially
// private budget for aggregates released outside the IT organization.
package privacy

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
)

// Anonymizer maps IP addresses to anonymized IP addresses such that two
// addresses sharing a k-bit prefix map to addresses sharing a k-bit prefix
// (prefix-preserving, the Crypto-PAn property). The mapping is a bijection
// determined entirely by the key, so anonymization is consistent across
// capture sessions — flows remain linkable without revealing hosts.
type Anonymizer struct {
	block cipher.Block
	pad   [16]byte

	mu sync.RWMutex
	// v4 is keyed by the address bits: nearly every lookup is IPv4, and a
	// 4-byte key hashes and compares in a fraction of a netip.Addr's 24.
	v4 map[uint32]uint32
	v6 map[netip.Addr]netip.Addr
	// limit bounds len(v4)+len(v6); reaching it empties both. The mapping
	// is a pure function of the key, so forgetting it changes no output.
	limit int
	// in and out are the cipher's scratch blocks, used under mu's write
	// lock (as locals they escape through cipher.Block on every miss).
	in, out [16]byte
}

// maxCached bounds the address cache (about 5 MB of IPv4 entries): room
// for a campus /16 and a few times as many peers, so ordinary traffic and
// a replayed capture stay warm, while a spoofed-source flood — a new
// address with every packet, for as long as the attack lasts — costs a
// recompute per address instead of memory without end.
const maxCached = 1 << 18

// NewAnonymizer derives an anonymizer from a 32-byte key: 16 bytes key the
// AES block, 16 bytes form the padding. Shorter secrets are stretched with
// SHA-256.
func NewAnonymizer(secret []byte) (*Anonymizer, error) {
	if len(secret) == 0 {
		return nil, fmt.Errorf("privacy: empty anonymization secret")
	}
	var key [32]byte
	if len(secret) == 32 {
		copy(key[:], secret)
	} else {
		key = sha256.Sum256(secret)
	}
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	a := &Anonymizer{
		block: block,
		v4:    make(map[uint32]uint32),
		v6:    make(map[netip.Addr]netip.Addr),
		limit: maxCached,
	}
	copy(a.pad[:], key[16:32])
	return a, nil
}

// Anonymize returns the prefix-preserving anonymized form of addr.
// Results are cached; the method is safe for concurrent use.
func (a *Anonymizer) Anonymize(addr netip.Addr) netip.Addr {
	if addr.Is4() {
		b := addr.As4()
		bits := binary.BigEndian.Uint32(b[:])
		a.mu.RLock()
		anon, ok := a.v4[bits]
		a.mu.RUnlock()
		if !ok {
			a.mu.Lock()
			anon = a.anon4(bits)
			a.makeRoom()
			a.v4[bits] = anon
			a.mu.Unlock()
		}
		binary.BigEndian.PutUint32(b[:], anon)
		return netip.AddrFrom4(b)
	}
	a.mu.RLock()
	anon, ok := a.v6[addr]
	a.mu.RUnlock()
	if !ok {
		a.mu.Lock()
		anon = a.anon16(addr)
		a.makeRoom()
		a.v6[addr] = anon
		a.mu.Unlock()
	}
	return anon
}

// makeRoom empties a full cache ahead of an insert. Caller holds mu.
func (a *Anonymizer) makeRoom() {
	if len(a.v4)+len(a.v6) >= a.limit {
		clear(a.v4)
		clear(a.v6)
	}
}

// anon4 runs the 32-round Crypto-PAn construction. Caller holds mu.
func (a *Anonymizer) anon4(origBits uint32) uint32 {
	padBits := binary.BigEndian.Uint32(a.pad[:4])
	var result uint32
	for i := 0; i < 32; i++ {
		// in = first i bits of the original address, then pad bits.
		a.in = a.pad
		if i > 0 {
			mask := uint32(0xffffffff) << (32 - i)
			binary.BigEndian.PutUint32(a.in[:4], origBits&mask|padBits&^mask)
		}
		a.block.Encrypt(a.out[:], a.in[:])
		result |= uint32(a.out[0]>>7) << (31 - i)
	}
	return origBits ^ result
}

// anon16 extends the construction to 128 bits for IPv6. Caller holds mu.
func (a *Anonymizer) anon16(addr netip.Addr) netip.Addr {
	orig := addr.As16()
	var result [16]byte
	for i := 0; i < 128; i++ {
		a.in = a.pad
		// Mix the first i bits of the original over the pad.
		for b := 0; b < 16; b++ {
			bitsInByte := i - b*8
			switch {
			case bitsInByte >= 8:
				a.in[b] = orig[b]
			case bitsInByte > 0:
				mask := byte(0xff) << (8 - bitsInByte)
				a.in[b] = orig[b]&mask | a.pad[b]&^mask
			}
		}
		a.block.Encrypt(a.out[:], a.in[:])
		if a.out[0]>>7 == 1 {
			result[i/8] |= 1 << (7 - i%8)
		}
	}
	var anon [16]byte
	for i := range anon {
		anon[i] = orig[i] ^ result[i]
	}
	return netip.AddrFrom16(anon)
}

// cacheSize reports how many addresses are cached now. It never exceeds
// the cache bound: a full cache is emptied and refilled.
func (a *Anonymizer) cacheSize() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.v4) + len(a.v6)
}

// CommonPrefixLen returns the length of the longest common bit-prefix of
// two addresses of the same family (the quantity Crypto-PAn preserves).
func CommonPrefixLen(a, b netip.Addr) int {
	ab, bb := a.As16(), b.As16()
	start := 0
	if a.Is4() && b.Is4() {
		start = 96 // compare only the embedded IPv4 bits
	}
	n := 0
	for i := start / 8; i < 16; i++ {
		x := ab[i] ^ bb[i]
		if x == 0 {
			n += 8
			continue
		}
		for m := byte(0x80); m != 0; m >>= 1 {
			if x&m != 0 {
				return n
			}
			n++
		}
	}
	return n
}
