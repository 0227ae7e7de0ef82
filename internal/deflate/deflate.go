// Package deflate encodes a DEFLATE stream (RFC 1951) in one call: LZ77
// over the 32 KiB window, driven by a 4-byte hash with one step of lazy
// matching, then each block as the cheapest of stored, fixed and dynamic
// Huffman codes. Scratch is pooled, a call with spare capacity in dst
// allocates nothing, and the output depends only on the input. It is the
// writer twin of internal/inflate; the tests hold compress/flate's reader
// and inflate.Into as oracles.
package deflate

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
)

const (
	window    = 1 << 15 // the farthest a match reaches back
	hashBits  = 15
	minMatch  = 4 // the hash's width: no shorter match is sought
	maxMatch  = 258
	lazyBelow = 32      // a match this long is taken without looking one byte on
	tailHash  = 4       // a match's last positions that are hashed; the rest are not
	maxTokens = 1 << 15 // a block's tokens: frequencies stay below 1<<16
	maxStored = 1<<16 - 1

	// A token is a literal byte, or matchFlag | (length-3)<<16 | (distance-1).
	matchFlag = 1 << 31
)

// Length and distance bases and extra bits (RFC 1951 §3.2.5), and the
// order of the code-length code's lengths in a dynamic header (§3.2.7).
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// lenSym maps length-3 to its length symbol less 257; distSym maps
// distance-1 below 256 to its distance symbol, and distSymHi one of 256
// or more by its value >> 7. fixedLit and fixedDist are the fixed code
// (RFC 1951 §3.2.6).
var (
	lenSym, distSym     [256]uint8
	distSymHi           [256]uint8
	fixedLit, fixedDist code
)

// code is one Huffman code: bit-reversed codes, ready to write LSB first,
// and their lengths, for literal/length, distance or code lengths. The
// fixed literal/length code has 288 symbols; the last two never occur.
type code struct {
	bits [288]uint16
	lens [288]uint8
}

func init() {
	for s := range lenBase[:28] {
		for l := lenBase[s]; l < lenBase[s+1]; l++ {
			lenSym[l-3] = uint8(s)
		}
	}
	lenSym[255] = 28
	for s := range distBase {
		for d := int(distBase[s]) - 1; d < int(distBase[s])-1+1<<distExtra[s]; d++ {
			if d < 256 {
				distSym[d] = uint8(s)
			} else {
				distSymHi[d>>7] = uint8(s)
			}
		}
	}
	for s := range fixedLit.lens {
		fixedLit.lens[s] = [...]uint8{8, 9, 7, 8}[min(s/144, 1)+min(s/256, 1)+min(s/280, 1)]
	}
	for s := range distBase {
		fixedDist.lens[s] = 5
	}
	fixedLit.assign()
	fixedDist.assign()
}

// encoder is the pooled scratch of one Append call.
type encoder struct {
	// table holds, per hash of four bytes, the newest position with that
	// hash plus base. Every call moves base past the positions the last
	// one used, so an entry an earlier call left lies before this call's
	// first byte and fails candidate's check: the table is never cleared,
	// but when base would wrap.
	table [1 << hashBits]uint32
	base  uint32

	tokens   [maxTokens]uint32
	ntok     int
	litFreq  [286]uint32
	distFreq [30]uint32
	lit      code
	dist     code
	clen     code
	clFreq   [19]uint32
	clToks   [286 + 30]uint16 // the dynamic header's code-length symbols, extra bits above bit 5
	ncl      int
	allLens  [286 + 30]uint8
	sorted   [286]uint16 // lengths' scratch: symbols by frequency
	tmp      [286]uint16
	depth    [286]uint32

	out      []byte
	bits     uint64 // bits not yet in out, next lowest
	nb       uint
	storedAt int // first byte of a stored run not yet written, or -1
}

var pool = sync.Pool{New: func() any { return &encoder{base: math.MaxUint32} }}

// Append appends one complete, final-flagged DEFLATE stream for src to dst
// and returns the extended slice.
func Append(dst, src []byte) []byte {
	e := pool.Get().(*encoder)
	dst = e.append(dst, src)
	pool.Put(e)
	return dst
}

func (e *encoder) append(dst, src []byte) []byte {
	if uint64(e.base)+uint64(len(src)) >= math.MaxUint32 {
		clear(e.table[:])
		e.base = 1 // above every cleared entry
	}
	e.out, e.bits, e.nb, e.storedAt = dst, 0, 0, -1
	e.compress(src)
	dst, e.out = e.out, nil
	// Saturating: a base at the top clears the table on the next call.
	e.base = uint32(min(uint64(e.base)+uint64(len(src)), math.MaxUint32))
	return dst
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func hash(v uint32) uint32 { return v * 0x1e35a7bd >> (32 - hashBits) }

// candidate returns the distance back to the newest earlier position
// whose four bytes hash like v's at i, records i in its place, and says
// whether that position is in this call's src, within the window, and
// holds v.
func (e *encoder) candidate(src []byte, i int, v uint32) (uint32, bool) {
	h := hash(v)
	cur := e.base + uint32(i)
	d := cur - e.table[h]
	e.table[h] = cur
	return d, d-1 < window && int(d) <= i && load32(src, i-int(d)) == v
}

// matchLen is how far src at b repeats src at a (a < b), given the first
// minMatch bytes do, up to maxMatch: eight bytes a step, the first
// difference found by the trailing zeros of their XOR.
func matchLen(src []byte, a, b int) int {
	n := min(len(src)-b, maxMatch)
	l := minMatch
	for ; l+8 <= n; l += 8 {
		if x := binary.LittleEndian.Uint64(src[a+l:]) ^ binary.LittleEndian.Uint64(src[b+l:]); x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
	}
	for l < n && src[a+l] == src[b+l] {
		l++
	}
	return l
}

func (e *encoder) literal(c byte) {
	e.tokens[e.ntok] = uint32(c)
	e.ntok++
	e.litFreq[c]++
}

func (e *encoder) match(length int, dist uint32) {
	e.tokens[e.ntok] = matchFlag | uint32(length-3)<<16 | (dist - 1)
	e.ntok++
	e.litFreq[257+int(lenSym[length-3])]++
	e.distFreq[symOfDist(dist-1)]++
}

func symOfDist(d uint32) uint8 {
	if d < 256 {
		return distSym[d]
	}
	return distSymHi[d>>7]
}

// compress tokenizes src, closing a block every maxTokens tokens.
func (e *encoder) compress(src []byte) {
	from, i, last := 0, 0, len(src)-minMatch
	for i <= last {
		if e.ntok >= maxTokens-1 {
			e.block(src, from, i, false)
			from = i
		}
		v := load32(src, i)
		dist, ok := e.candidate(src, i, v)
		if !ok {
			e.literal(src[i])
			i++
			continue
		}
		length := matchLen(src, i-int(dist), i)
		// One step of lazy matching: a longer match a byte on wins, and
		// this byte goes as a literal.
		if length < lazyBelow && i+1 <= last {
			v1 := load32(src, i+1)
			if d1, ok := e.candidate(src, i+1, v1); ok {
				if l1 := matchLen(src, i+1-int(d1), i+1); l1 > length {
					e.literal(src[i])
					i, length, dist = i+1, l1, d1
				}
			}
		}
		e.match(length, dist)
		i += length
		// Only the match's tail is hashed.
		for j := max(i-tailHash, 0); j < i && j <= last; j++ {
			h := hash(load32(src, j))
			e.table[h] = e.base + uint32(j)
		}
	}
	for ; i < len(src); i++ {
		if e.ntok >= maxTokens-1 {
			e.block(src, from, i, false)
			from = i
		}
		e.literal(src[i])
	}
	e.block(src, from, len(src), true)
	e.align()
}

// block writes the tokens of src[from:to] as the cheapest of a dynamic, a
// fixed and a stored block. Stored blocks are held back and merged with
// the stored blocks after them, so incompressible input pays one 5-byte
// header per 65 535 bytes whatever the token count.
func (e *encoder) block(src []byte, from, to int, final bool) {
	e.litFreq[256]++ // end of block
	extra := 0
	for s, f := range e.litFreq[257:] {
		extra += int(f) * int(lenExtra[s])
	}
	for s, f := range e.distFreq {
		extra += int(f) * int(distExtra[s])
	}
	fixedCost := 3 + extra + fixedLit.cost(e.litFreq[:]) + fixedDist.cost(e.distFreq[:])
	nlit, ndist, nclen, dynCost := e.dynamic()
	dynCost += extra
	// A stored block extends the held-back run: it costs its bytes and the
	// 40-bit headers of the chunks it adds.
	run := from
	if e.storedAt >= 0 {
		run = e.storedAt
	}
	chunks := func(n int) int { return (n + maxStored - 1) / maxStored }
	storedCost := 8*(to-from) + 40*max(chunks(to-run)-chunks(from-run), int(b2u(run == from)))

	switch {
	case storedCost < min(fixedCost, dynCost):
		if e.storedAt < 0 {
			e.storedAt = from
		}
		if final {
			e.stored(src, to, true)
		}
	case fixedCost <= dynCost:
		e.stored(src, from, false)
		e.put(b2u(final)|1<<1, 3)
		e.tokensWith(&fixedLit, &fixedDist)
	default:
		e.stored(src, from, false)
		e.put(b2u(final)|2<<1, 3)
		e.put(uint64(nlit-257)|uint64(ndist-1)<<5|uint64(nclen-4)<<10, 14)
		for _, s := range clenOrder[:nclen] {
			e.put(uint64(e.clen.lens[s]), 3)
		}
		for _, t := range e.clToks[:e.ncl] {
			s := t & 31
			e.put(uint64(e.clen.bits[s]), uint(e.clen.lens[s]))
			if s >= 16 {
				e.put(uint64(t>>5), uint([3]uint8{2, 3, 7}[s-16]))
			}
		}
		e.tokensWith(&e.lit, &e.dist)
	}
	e.ntok = 0
	clear(e.litFreq[:])
	clear(e.distFreq[:])
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// stored writes the held-back stored run, src[e.storedAt:to], as stored
// blocks of at most maxStored bytes, the last one final if final says.
func (e *encoder) stored(src []byte, to int, final bool) {
	if e.storedAt < 0 {
		return
	}
	for p := e.storedAt; ; {
		n := min(to-p, maxStored)
		e.put(b2u(final && p+n == to), 3)
		e.align()
		e.out = binary.LittleEndian.AppendUint16(e.out, uint16(n))
		e.out = binary.LittleEndian.AppendUint16(e.out, ^uint16(n))
		e.out = append(e.out, src[p:p+n]...)
		if p += n; p == to {
			break
		}
	}
	e.storedAt = -1
}

// tokensWith writes the block's tokens and its end in the given codes.
func (e *encoder) tokensWith(lit, dist *code) {
	for _, t := range e.tokens[:e.ntok] {
		if t < matchFlag {
			e.put(uint64(lit.bits[t]), uint(lit.lens[t]))
			continue
		}
		l, d := t>>16&0xff, t&0xffff
		ls, ds := lenSym[l], symOfDist(d)
		e.put(uint64(lit.bits[257+int(ls)])|uint64(l+3-uint32(lenBase[ls]))<<lit.lens[257+int(ls)],
			uint(lit.lens[257+int(ls)]+lenExtra[ls]))
		e.put(uint64(dist.bits[ds])|uint64(d+1-uint32(distBase[ds]))<<dist.lens[ds],
			uint(dist.lens[ds]+distExtra[ds]))
	}
	e.put(uint64(lit.bits[256]), uint(lit.lens[256]))
}

// dynamic builds the block's dynamic codes and its header, returning the
// header's counts and the block's size in bits, extra bits aside.
func (e *encoder) dynamic() (nlit, ndist, nclen, cost int) {
	if e.distFreq == [30]uint32{} {
		// A block without matches still declares one distance code, as
		// compress/flate's writer does, so the distance tree is a code.
		e.distFreq[0] = 1
		defer func() { e.distFreq[0] = 0 }()
	}
	e.lengths(e.litFreq[:], e.lit.lens[:], 15)
	e.lengths(e.distFreq[:], e.dist.lens[:30], 15)
	e.lit.assign()
	e.dist.assign()
	for nlit = 286; nlit > 257 && e.lit.lens[nlit-1] == 0; nlit-- {
	}
	for ndist = 30; ndist > 1 && e.dist.lens[ndist-1] == 0; ndist-- {
	}

	// Run-length code the lengths: 16 repeats the last 3-6 times, 17 and
	// 18 write 3-10 and 11-138 zeros.
	lens := append(append(e.allLens[:0], e.lit.lens[:nlit]...), e.dist.lens[:ndist]...)
	clear(e.clFreq[:])
	e.ncl = 0
	emit := func(s, x uint16) {
		e.clToks[e.ncl] = s | x<<5
		e.ncl++
		e.clFreq[s]++
	}
	for i := 0; i < len(lens); {
		l, run := lens[i], 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, uint16(min(run, 138)-11))
			}
			if run >= 3 {
				emit(17, uint16(run-3))
				run = 0
			}
		} else {
			emit(uint16(l), 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, uint16(min(run, 6)-3))
			}
		}
		for ; run > 0; run-- {
			emit(uint16(l), 0)
		}
	}
	e.lengths(e.clFreq[:], e.clen.lens[:19], 7)
	e.clen.assign()
	for nclen = 19; nclen > 4 && e.clen.lens[clenOrder[nclen-1]] == 0; nclen-- {
	}
	cost = 3 + 14 + 3*nclen + e.clen.cost(e.clFreq[:]) + int(2*e.clFreq[16]+3*e.clFreq[17]+7*e.clFreq[18]) +
		e.lit.cost(e.litFreq[:]) + e.dist.cost(e.distFreq[:])
	return nlit, ndist, nclen, cost
}

// cost is the bits freq's symbols take in c.
func (c *code) cost(freq []uint32) int {
	n := 0
	for s, f := range freq {
		n += int(f) * int(c.lens[s])
	}
	return n
}

// assign gives each symbol with a length its canonical code (RFC 1951
// §3.2.2), bit-reversed for writing LSB first.
func (c *code) assign() {
	var count, next [16]uint16
	for _, l := range c.lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range c.lens {
		if l != 0 {
			c.bits[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// lengths sets lens to the lengths of a Huffman code for freq no longer
// than maxLen bits (zero for an unused symbol; one used symbol gets one
// bit). The used symbols sort by frequency in two counting passes, one
// per byte (frequencies are below 1<<16); Moffat and Katajainen's
// in-place pass gives the optimal lengths; lengths over maxLen fold back
// into maxLen and the Kraft sum is repaired by lengthening the deepest
// codes that fit, as zlib and miniz do.
func (e *encoder) lengths(freq []uint32, lens []uint8, maxLen int) {
	n := 0
	for s, f := range freq {
		lens[s] = 0
		if f != 0 {
			e.tmp[n] = uint16(s)
			n++
		}
	}
	switch n {
	case 0:
		return
	case 1:
		lens[e.tmp[0]] = 1
		return
	}
	syms, tmp := e.sorted[:n], e.tmp[:n]
	for shift := 0; shift < 16; shift += 8 {
		var count [257]int
		for _, s := range tmp {
			count[freq[s]>>shift&0xff+1]++
		}
		for b := 1; b < 256; b++ {
			count[b] += count[b-1]
		}
		for _, s := range tmp {
			k := freq[s] >> shift & 0xff
			syms[count[k]] = s
			count[k]++
		}
		syms, tmp = tmp, syms
	}
	// After two passes the sorted symbols are back in tmp.
	a := e.depth[:n]
	for i, s := range tmp {
		a[i] = freq[s]
	}
	minimumRedundancy(a)

	var count [16]int
	for _, d := range a {
		count[min(int(d), maxLen)]++
	}
	total := 0
	for l := 1; l <= maxLen; l++ {
		total += count[l] << (maxLen - l)
	}
	for ; total > 1<<maxLen; total-- {
		count[maxLen]--
		for l := maxLen - 1; l > 0; l-- {
			if count[l] != 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	// The most frequent symbols, at the end, take the shortest codes.
	j := n
	for l := 1; l <= maxLen; l++ {
		for k := 0; k < count[l]; k++ {
			j--
			lens[tmp[j]] = uint8(l)
		}
	}
}

// minimumRedundancy replaces a, at least two frequencies in ascending
// order, by the code lengths of a Huffman code for them, in place
// (Moffat and Katajainen, "In-place calculation of minimum-redundancy
// codes", 1995): first the tree's parent links, then each internal
// node's depth, then the leaves' depths.
func minimumRedundancy(a []uint32) {
	n := len(a)
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, uint32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, used, depth = 2*used, 0, depth+1
	}
}

// put appends the n low bits of v, n <= 32.
func (e *encoder) put(v uint64, n uint) {
	e.bits |= v << e.nb
	if e.nb += n; e.nb >= 32 {
		e.out = binary.LittleEndian.AppendUint32(e.out, uint32(e.bits))
		e.bits >>= 32
		e.nb -= 32
	}
}

// align writes the pending bits out to a byte boundary, zero padded.
func (e *encoder) align() {
	for ; e.nb > 0; e.nb -= min(e.nb, 8) {
		e.out = append(e.out, byte(e.bits))
		e.bits >>= 8
	}
}
