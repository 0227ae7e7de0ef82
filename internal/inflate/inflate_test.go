package inflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// oracle is compress/flate with the checks a cold block read always made:
// exactly size bytes, then a clean end of stream.
func oracle(src []byte, size int) ([]byte, bool) {
	fr := flate.NewReader(bytes.NewReader(src))
	buf := make([]byte, size)
	if _, err := io.ReadFull(fr, buf); err != nil {
		return nil, false
	}
	var one [1]byte
	if n, err := fr.Read(one[:]); n != 0 || err != io.EOF {
		return nil, false
	}
	return buf, fr.Close() == nil
}

// natural is how many bytes compress/flate gets out of src before its end
// or its first error, capped at limit.
func natural(src []byte, limit int) int {
	n, _ := io.Copy(io.Discard, io.LimitReader(flate.NewReader(bytes.NewReader(src)), int64(limit)))
	return int(n)
}

// agree fails unless Into and the oracle both refuse src at size, or both
// accept it with the same bytes.
func agree(t *testing.T, src []byte, size int) {
	t.Helper()
	want, ok := oracle(src, size)
	got := make([]byte, size)
	err := Into(got, src)
	switch {
	case ok && err != nil:
		t.Fatalf("size %d, stream % x: compress/flate accepts, Into refuses: %v", size, src, err)
	case !ok && err == nil:
		t.Fatalf("size %d, stream % x: compress/flate refuses, Into accepts", size, src)
	case ok && !bytes.Equal(got, want):
		t.Fatalf("size %d, stream % x: Into decodes other bytes than compress/flate", size, src)
	}
}

// levels are the writer settings the differential tests compress at.
var levels = []int{flate.NoCompression, flate.BestSpeed, 4, flate.BestCompression, flate.HuffmanOnly}

func deflate(t testing.TB, data []byte, level int) []byte {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sample draws a test input whose shape decides which blocks a writer
// emits: random bytes (stored), a few symbols (fixed or short dynamic
// codes), skewed symbols (codes over 9 bits), runs (overlapping copies)
// and a repeated phrase (long distances).
func sample(r *rand.Rand) []byte {
	n := r.Intn(1 << uint(r.Intn(16)))
	data := make([]byte, n)
	switch r.Intn(5) {
	case 0:
		r.Read(data)
	case 1:
		for i := range data {
			data[i] = "abc"[r.Intn(3)]
		}
	case 2:
		for i := range data {
			data[i] = byte(bits.TrailingZeros32(r.Uint32() | 1<<20))
		}
	case 3:
		for i := 0; i < n; {
			run := min(n-i, 1+r.Intn(600))
			b := byte(r.Intn(4))
			for ; run > 0; run-- {
				data[i] = b
				i++
			}
		}
	default:
		phrase := make([]byte, 1+r.Intn(300))
		r.Read(phrase)
		for i := range data {
			data[i] = phrase[i%len(phrase)] ^ byte(r.Intn(50)/49)
		}
	}
	return data
}

// TestIntoMatchesFlate compresses a few thousand inputs at every level and
// holds Into to compress/flate on each stream as written and under eight
// corruptions: a flipped byte, a cut, bytes appended after the end, a
// size one short and one long, and the three read at a random size.
func TestIntoMatchesFlate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		data := sample(r)
		src := deflate(t, data, levels[i%len(levels)])
		size := len(data)
		agree(t, src, size)
		flip := slices.Clone(src)
		flip[r.Intn(len(flip))] ^= byte(1 + r.Intn(255))
		cut := src[:r.Intn(len(src))]
		extend := append(slices.Clone(src), 0xff, 0x00, 0x5a)
		agree(t, flip, natural(flip, 1<<20))
		agree(t, cut, natural(cut, 1<<20))
		agree(t, extend, size)
		agree(t, src, size+1)
		if size > 0 {
			agree(t, src, size-1)
		}
		for _, s := range [][]byte{flip, cut, extend} {
			agree(t, s, r.Intn(size+2))
		}
	}
}

// TestIntoRefuses names each check a cold block read relies on.
func TestIntoRefuses(t *testing.T) {
	data := bytes.Repeat([]byte("campus lab "), 200)
	src := deflate(t, data, 4)
	dst := make([]byte, len(data))
	if err := Into(dst, src); err != nil || !bytes.Equal(dst, data) {
		t.Fatalf("good stream: %v", err)
	}
	if err := Into(dst, append(slices.Clone(src), "after the final block"...)); err != nil {
		t.Fatalf("input after the final block is not ignored: %v", err)
	}
	overSub := make([]uint8, 257) // three one-bit codes
	overSub['a'], overSub['b'], overSub[256] = 1, 1, 1
	// One fixed block: "a" and the end-of-block code, 18 bits. Its third
	// byte holds only the end-of-block code's last two bits, both zero.
	fixedA := fixedStream([]int{'a'}, 0, 0)
	stored := deflate(t, []byte("stored"), flate.NoCompression)
	badStored := slices.Clone(stored)
	badStored[3] ^= 1 // NLEN no longer complements LEN
	for _, c := range []struct {
		name string
		size int
		src  []byte
		want error
	}{
		{"one byte short", len(data) - 1, src, errOverflow},
		{"one byte long", len(data) + 1, src, errShort},
		{"truncated", len(data), src[:len(src)-1], errTruncated},
		{"truncated stored", 6, stored[:len(stored)-1], errTruncated},
		{"truncated in its last zero bits", 1, fixedA[:2], errTruncated},
		{"reserved block type", 0, []byte{0x07}, errHeader},
		{"stored length", 6, badStored, errHeader},
		{"over-subscribed tree", 1, dynamicStream(overSub, []uint8{1, 1}, []int{'a', 256}, false), errTree},
		{"distance before the start", 4, fixedStream([]int{'a'}, 3, 1), errDistance},
		{"fixed distance code 30", 4, fixedStream([]int{'a'}, 3, 30), errCode},
	} {
		if err := Into(make([]byte, c.size), c.src); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
		agree(t, c.src, c.size)
	}
}

// TestIntoAllocatesNothing: the pooled scratch holds every table, so a
// block decode allocates nothing once the pool is warm.
func TestIntoAllocatesNothing(t *testing.T) {
	data := sample(rand.New(rand.NewSource(3)))
	data = append(data, bytes.Repeat([]byte{7}, 1000)...)
	src := deflate(t, data, 4)
	dst := make([]byte, len(data))
	if n := testing.AllocsPerRun(100, func() {
		if err := Into(dst, src); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Into allocates %.1f times per call", n)
	}
}

// bitWriter packs a DEFLATE bit stream, first bit lowest, for the streams
// no writer emits.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

// sym writes sym's code from the canonical code with lengths lens, first
// bit highest.
func (w *bitWriter) sym(lens []uint8, sym int) {
	code, l := 0, lens[sym]
	for k := uint8(1); k <= l; k++ {
		code <<= 1
		for s, ls := range lens {
			if ls == k && (k < l || s < sym) {
				code++
			}
		}
	}
	w.bits(uint64(bits.Reverse16(uint16(code))>>(16-l)), uint(l))
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.buf, byte(w.acc))
	}
	return w.buf
}

// fixedLens are the fixed literal/length and distance code lengths.
func fixedLens() (lit, dist []uint8) {
	lit = make([]uint8, 288)
	for i := range lit {
		switch {
		case i < 144:
			lit[i] = 8
		case i < 256:
			lit[i] = 9
		case i < 280:
			lit[i] = 7
		default:
			lit[i] = 8
		}
	}
	dist = make([]uint8, 32)
	for i := range dist {
		dist[i] = 5
	}
	return lit, dist
}

// fixedStream is one fixed-Huffman block: the literals, then, unless
// length is 0, one copy of length bytes (3 to 10) from distance symbol
// distSym, its extra bits zero, then the end of block.
func fixedStream(lits []int, length, distSym int) []byte {
	lit, dist := fixedLens()
	var w bitWriter
	w.bits(1|1<<1, 3)
	for _, c := range lits {
		w.sym(lit, c)
	}
	if length != 0 {
		w.sym(lit, 254+length)
		w.sym(dist, distSym)
		if distSym < 30 {
			w.bits(0, uint(distExtra[distSym]))
		}
	}
	w.sym(lit, 256)
	return w.bytes()
}

// dynamicStream is one dynamic block with the given literal/length and
// distance code lengths, every length sent as a plain 4-bit code-length
// symbol, followed by syms: a literal/length symbol each, or, tagged
// with distTag, a distance symbol (whose extra bits are all zero).
//
// With repeatFirst, the code-length code also has code 16, and the header
// sends the first three lengths, which must be zero, as a 16: a repeat
// with no length before it, which compress/flate refuses.
func dynamicStream(lit, dist []uint8, syms []int, repeatFirst bool) []byte {
	var w bitWriter
	w.bits(1|2<<1, 3)
	w.bits(uint64(len(lit)-257), 5)
	w.bits(uint64(len(dist)-1), 5)
	w.bits(19-4, 4)
	clens := make([]uint8, 19)
	for s := range clens[:16] {
		clens[s] = 4
	}
	if repeatFirst {
		copy(clens, []uint8{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 2, 3, 3})
	}
	for _, s := range clenOrder {
		w.bits(uint64(clens[s]), 3)
	}
	lens := slices.Concat(lit, dist)
	if repeatFirst {
		w.sym(clens, 16)
		w.bits(0, 2)
		lens = lens[3:]
	}
	for _, l := range lens {
		w.sym(clens, int(l))
	}
	for _, s := range syms {
		if s >= distTag {
			w.sym(dist, s-distTag)
			continue
		}
		w.sym(lit, s)
		if s > 256 {
			w.bits(0, uint(lenExtra[s-257]))
		}
	}
	return w.bytes()
}

const distTag = 1 << 16

// longCodes is a complete literal/length code with codes of every length
// from 1 to 15 bits: literals 'a' to 'o', then a 15-bit end of block.
func longCodes() []uint8 {
	lit := make([]uint8, 257)
	for i := 0; i < 15; i++ {
		lit['a'+i] = uint8(i + 1)
	}
	lit[256] = 15
	return lit
}

// handStreams are the streams no writer emits but compress/flate accepts
// or refuses for a reason of its own, each with its expected size.
func handStreams() []struct {
	src  []byte
	size int
} {
	long := longCodes()
	var all []int
	for c := 'a'; c <= 'o'; c++ {
		all = append(all, int(c), int(c))
	}
	withCopy := make([]uint8, 258) // longCodes plus length symbol 257 (3 bytes)
	copy(withCopy, long)
	withCopy['o'], withCopy[257] = 0, 15
	return []struct {
		src  []byte
		size int
	}{
		// A fixed-Huffman block with a back-reference.
		{fixedStream([]int{'a', 'b', 'c'}, 6, 2), 9},
		// Codes over 9 bits, up to 15: subtables of every size.
		{dynamicStream(long, []uint8{1, 1}, append(all, 256), false), len(all)},
		// A one-code distance tree: its single one-bit code is 0.
		{dynamicStream(withCopy, []uint8{1}, []int{'a', 257, distTag, 256}, false), 4},
		// The same tree sent the bit pattern it leaves unused.
		{append(dynamicStream(withCopy, []uint8{1}, []int{'a', 257}, false), 0xff, 0xff), 4},
		// An empty distance tree that a length code then references.
		{dynamicStream(withCopy, []uint8{0}, []int{'a', 257, 256}, false), 4},
		// A length repeat (16) with no length before it.
		{dynamicStream(long, []uint8{1, 1}, append(all, 256), true), len(all)},
	}
}

// TestHandStreams: both decoders accept the first three hand streams and
// refuse the rest.
func TestHandStreams(t *testing.T) {
	for i, h := range handStreams() {
		agree(t, h.src, h.size)
		_, ok := oracle(h.src, h.size)
		if want := i < 3; ok != want {
			t.Errorf("hand stream %d: compress/flate accepts = %v, want %v", i, ok, want)
		}
	}
}

// FuzzInflate holds Into to compress/flate on arbitrary streams: the
// fuzzer's bytes either are the stream (mode 0) or are compressed at one
// of the writer levels, then mutated (op 1), cut (op 2) or extended
// (op 3), and read at the stream's natural size plus delta. Into must
// give the same bytes or refuse where compress/flate refuses.
//
// testdata/fuzz/FuzzInflate also holds, in mode 0, the block streams
// compress/flate wrote into the datastore's first pinned segment fixture
// (the v2 file internal/datastore/testdata/format/tier/ held before the
// v3 writer's replaced it).
func FuzzInflate(f *testing.F) {
	f.Add([]byte("stored, one block"), uint8(1), uint8(0), uint16(0), uint8(0), int16(0))
	f.Add(bytes.Repeat([]byte("the level 4 writer "), 40), uint8(3), uint8(0), uint16(0), uint8(0), int16(0))
	f.Add(bytes.Repeat([]byte("aaaaaaaaab"), 50), uint8(5), uint8(1), uint16(7), uint8(0x10), int16(0))
	for _, h := range handStreams() {
		f.Add(h.src, uint8(0), uint8(0), uint16(0), uint8(0), int16(h.size-natural(h.src, 1<<20)))
	}
	f.Fuzz(func(t *testing.T, data []byte, mode, op uint8, at uint16, val uint8, delta int16) {
		src := data
		if m := int(mode) % (len(levels) + 1); m > 0 {
			src = deflate(t, data, levels[m-1])
		}
		switch op % 4 {
		case 1:
			if len(src) > 0 {
				src = slices.Clone(src)
				src[int(at)%len(src)] ^= val
			}
		case 2:
			src = src[:int(at)%(len(src)+1)]
		case 3:
			src = append(slices.Clone(src), bytes.Repeat([]byte{val}, 1+int(at)%16)...)
		}
		size := natural(src, 1<<20) + int(delta)
		if size < 0 || size > 1<<20 {
			return
		}
		agree(t, src, size)
	})
}
