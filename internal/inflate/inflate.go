// Package inflate decodes a DEFLATE stream (RFC 1951) straight into a
// buffer of its known size: no history window, no second copy, tables in
// pooled scratch, no allocation. It accepts exactly what compress/flate
// accepts, with the same output; the tests hold compress/flate as oracle.
package inflate

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

var (
	errTruncated = errors.New("inflate: stream truncated")
	errOverflow  = errors.New("inflate: stream decodes to more bytes than the buffer holds")
	errShort     = errors.New("inflate: stream decodes to fewer bytes than the buffer holds")
	errHeader    = errors.New("inflate: bad block header")
	errTree      = errors.New("inflate: bad Huffman code lengths")
	errCode      = errors.New("inflate: invalid Huffman code")
	errDistance  = errors.New("inflate: distance reaches before the first byte")
)

// A table entry holds a symbol above bit 8 and its code length in bits 0-3
// or, with link set, a subtable's start and index bits; bad (length 0, no
// such symbol) starts no code. Roots index 9 bits (literal/length), 8
// (distance) or 7 (code lengths: no subtables). A subtable serves two or
// more codes longer than the root, in at most 2^(15-root) entries.
const (
	litBits, distBits, clenBits = 9, 8, 7
	link, bad                   = 1 << 4, 0xffff << 8
)

// decoder is the pooled scratch of one Into call: tables and bit reader.
type decoder struct {
	lit  [1<<litBits + 286/2<<(15-litBits)]uint32
	dist [1<<distBits + 30/2<<(15-distBits)]uint32
	clen [1 << clenBits]uint32
	lens [288 + 32]uint8 // code lengths of the current dynamic block, or of the fixed code
	long [286]uint32     // build's codes longer than the root: entry, and the code above bit 17
	src  []byte
	pos  int    // next byte of src to load; passes len(src) by the zero bytes shifted in
	b    uint64 // bit buffer, next bit lowest
	nb   uint   // bits in b
}

var pool = sync.Pool{New: func() any { return new(decoder) }}

// fixed holds the fixed code's tables (RFC 1951 §3.2.6): literal/length
// codes of 8, 9, 7 and 8 bits from symbols 0, 144, 256 and 280, and 32
// five-bit distance codes. 30, 31, 286 and 287 decode, then are refused.
var fixed = func() *decoder {
	d := new(decoder)
	for i := range d.lens {
		d.lens[i] = [...]uint8{8, 9, 7, 8, 5}[min(i/144, 1)+min(i/256, 1)+min(i/280, 1)+min(i/288, 1)]
	}
	d.build(d.lit[:], d.lens[:288], litBits)
	d.build(d.dist[:], d.lens[288:], distBits)
	return d
}()

// Length and distance bases and extra bits (RFC 1951 §3.2.5), and the
// order of the code-length code's lengths in a dynamic header (§3.2.7).
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// Into decodes the DEFLATE stream src into dst. It fails unless the stream
// is well formed to the end of its final block and decodes to exactly
// len(dst) bytes; on failure dst holds garbage.
func Into(dst, src []byte) error {
	d := pool.Get().(*decoder)
	err := d.run(dst, src)
	d.src = nil // src may be a file mapping, released after the call
	pool.Put(d)
	return err
}

func (d *decoder) run(dst, src []byte) (err error) {
	d.src, d.pos, d.b, d.nb = src, 0, 0, 0
	out := 0
	for final := uint32(0); final == 0 && err == nil; {
		final = d.take(1)
		switch d.take(2) {
		case 0:
			out, err = d.stored(dst, out)
		case 1:
			out, err = d.huffman(dst, out, fixed)
		case 2:
			if err = d.dynamic(); err == nil {
				out, err = d.huffman(dst, out, d)
			}
		default:
			err = errHeader
		}
	}
	switch {
	case err != nil:
	case d.pos*8-int(d.nb) > len(src)*8:
		err = errTruncated // the final block ended in zero bytes shifted in past the end
	case out != len(dst):
		err = errShort
	}
	return err
}

// need makes sure the bit buffer holds n <= 56 bits (past the end, zeros
// that run's final check catches); take consumes n.
func (d *decoder) need(n uint) {
	if d.nb < n {
		d.pos, d.b, d.nb, _ = refill(d.src, d.pos, d.b, d.nb)
	}
}

func (d *decoder) take(n uint) uint32 {
	d.need(n)
	v := uint32(d.b & (1<<n - 1))
	d.b, d.nb = d.b>>n, d.nb-n
	return v
}

// refill tops the bit buffer up to 56 bits or more, with zero bytes past
// the end of src; after eight of them, it errs: garbage is being decoded.
func refill(src []byte, pos int, b uint64, nb uint) (int, uint64, uint, error) {
	if pos+8 <= len(src) {
		return pos + int(63-nb)>>3, b | binary.LittleEndian.Uint64(src[pos:])<<nb, nb | 56, nil
	}
	for ; nb <= 56; nb, pos = nb+8, pos+1 {
		if pos < len(src) {
			b |= uint64(src[pos]) << nb
		}
	}
	if pos > len(src)+8 {
		return pos, b, nb, errTruncated
	}
	return pos, b, nb, nil
}

// stored copies a stored block through.
func (d *decoder) stored(dst []byte, out int) (int, error) {
	p := d.pos - int(d.nb>>3) + 4 // past LEN and NLEN, from the byte boundary
	d.b, d.nb = 0, 0
	if p > len(d.src) {
		return out, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(d.src[p-4:]))
	switch {
	case uint16(n) != ^binary.LittleEndian.Uint16(d.src[p-2:]):
		return out, errHeader
	case p+n > len(d.src):
		return out, errTruncated
	case out+n > len(dst):
		return out, errOverflow
	}
	d.pos = p + n
	return out + copy(dst[out:], d.src[p:d.pos]), nil
}

// dynamic reads a dynamic block's header and builds its tables.
func (d *decoder) dynamic() error {
	nlit, ndist, nclen := int(d.take(5))+257, int(d.take(5))+1, int(d.take(4))+4
	if nlit > 286 || ndist > 30 {
		return errHeader
	}
	var clens [19]uint8
	for _, sym := range clenOrder[:nclen] {
		clens[sym] = uint8(d.take(3))
	}
	if !d.build(d.clen[:], clens[:], clenBits) {
		return errTree
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		d.need(clenBits + 7)
		e := d.clen[d.b&(1<<clenBits-1)]
		if e&15 == 0 {
			return errCode
		}
		d.take(uint(e & 15))
		sym := e >> 8
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the last length 3-6 times; 17, 18 a zero 3-10, 11-138.
		v, rep := uint8(0), [3]int{3, 3, 11}[sym-16]+int(d.take([3]uint{2, 3, 7}[sym-16]))
		if sym == 16 && i == 0 || i+rep > len(lens) {
			return errTree
		} else if sym == 16 {
			v = lens[i-1]
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	if !d.build(d.lit[:], lens[:nlit], litBits) || !d.build(d.dist[:], lens[nlit:], distBits) {
		return errTree
	}
	return nil
}

// build fills t for the canonical code with lengths lens (0: no code),
// refusing an over-subscribed or incomplete code but for no code at all and
// one one-bit code (compress/flate accepts both; their gaps are bad). A
// complete code owns every entry it reaches: t is overwritten, not cleared.
func (d *decoder) build(t []uint32, lens []uint8, root int) bool {
	var count, next [16]int // codes of each length; the next code of each length
	maxLen := uint8(0)
	for _, l := range lens {
		count[l]++
		maxLen = max(maxLen, l)
	}
	count[0] = 0
	left := 1
	for l := 1; l <= 15; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return false
		}
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	mask := 1<<root - 1
	if left > 0 && maxLen > 1 {
		return false
	} else if left > 0 {
		for i := range t[:mask+1] {
			t[i] = bad
		}
	}
	// Codes of one length count up in symbol order, so nothing is sorted.
	// A code no longer than the root fills every root entry it prefixes; a
	// longer one waits, while depth keeps the longest under each prefix.
	long, depth := d.long[:0], [1 << litBits]uint8{}
	for s, l := range lens {
		if l == 0 {
			continue
		}
		rev, e := int(bits.Reverse16(uint16(next[l]))>>(16-l)), uint32(s)<<8|uint32(l)
		next[l]++
		if int(l) > root {
			long = append(long, uint32(rev)<<17|e)
			depth[rev&mask] = max(depth[rev&mask], l-uint8(root))
			continue
		}
		for j := rev; j <= mask; j += 1 << l {
			t[j] = e
		}
	}
	// Each prefix gets a subtable just deep enough, linked from its root
	// entry on the first of its codes.
	sub := mask + 1
	for _, c := range long {
		rev, e := int(c>>17), c&(1<<17-1)
		if depth[rev&mask] != 0 {
			t[rev&mask] = uint32(sub)<<8 | link | uint32(depth[rev&mask])
			sub += 1 << depth[rev&mask]
			depth[rev&mask] = 0
		}
		at := t[rev&mask]
		for j := rev >> root; j < 1<<(at&15); j += 1 << (int(e&15) - root) {
			t[int(at>>8)+j] = e
		}
	}
	return true
}

// huffman decodes a block with tab's tables into dst[out:], returning the
// new end of the output.
func (d *decoder) huffman(dst []byte, out int, tab *decoder) (int, error) {
	src, pos, b, nb := d.src, d.pos, d.b, d.nb
	lit, dist := &tab.lit, &tab.dist
	var err error
	for {
		// The longest symbol is 48 bits: a 15-bit length code and its 5
		// extra bits, then a 15-bit distance code and its 13.
		if nb < 48 {
			if pos+8 <= len(src) {
				pos, b, nb = pos+int(63-nb)>>3, b|binary.LittleEndian.Uint64(src[pos:])<<nb, nb|56
			} else if pos, b, nb, err = refill(src, pos, b, nb); err != nil {
				break
			}
		}
		e := lit[b&(1<<litBits-1)]
		if e&link != 0 {
			e = lit[e>>8+uint32(b>>litBits)&(1<<(e&15)-1)]
		}
		b, nb = b>>(e&15), nb-uint(e&15)
		sym := e >> 8
		if sym < 256 {
			if out >= len(dst) {
				err = errOverflow
				break
			}
			dst[out] = byte(sym)
			out++
			continue
		}
		if sym == 256 {
			break // end of block
		}
		if sym -= 257; sym >= 29 {
			err = errCode // bad, or 286 or 287, which only the fixed code can send
			break
		}
		x := uint(lenExtra[sym])
		length := int(lenBase[sym]) + int(b&(1<<x-1))
		b, nb = b>>x, nb-x
		e = dist[b&(1<<distBits-1)]
		if e&link != 0 {
			e = dist[e>>8+uint32(b>>distBits)&(1<<(e&15)-1)]
		}
		b, nb = b>>(e&15), nb-uint(e&15)
		if sym = e >> 8; sym >= 30 {
			err = errCode
			break
		}
		x = uint(distExtra[sym])
		dd, end := int(distBase[sym])+int(b&(1<<x-1)), out+length
		b, nb = b>>x, nb-x
		switch {
		case dd > out:
			err = errDistance
		case end > len(dst):
			err = errOverflow
		case dd == 1 && end+8 <= len(dst):
			// A run of one byte, the commonest overlap: eight at a time,
			// the last store spilling into bytes not yet decoded.
			for v := uint64(dst[out-1]) * 0x0101010101010101; out < end; out += 8 {
				binary.LittleEndian.PutUint64(dst[out:], v)
			}
		default:
			// A copy from a fixed start: one pass unless the copy overlaps
			// its source, then each pass doubles the run.
			for from := out - dd; out < end; {
				out += copy(dst[out:end], dst[from:out])
			}
		}
		if err != nil {
			break
		}
		out = end
	}
	d.pos, d.b, d.nb = pos, b, nb
	return out, err
}
