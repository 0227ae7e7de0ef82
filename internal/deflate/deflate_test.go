package deflate

import (
	"bytes"
	"compress/flate"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"campuslab/internal/inflate"
	"campuslab/internal/traffic"
)

// roundTrip fails unless src decodes back to data through both
// compress/flate's reader and inflate.Into.
func roundTrip(t testing.TB, name string, data, src []byte) {
	t.Helper()
	got, err := io.ReadAll(flate.NewReader(bytes.NewReader(src)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("%s: compress/flate reads %d of %d bytes back (err %v)", name, len(got), len(data), err)
	}
	got = make([]byte, len(data))
	if err := inflate.Into(got, src); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("%s: inflate.Into: %v", name, err)
	}
}

// level4 is compress/flate at the level the store wrote before this
// encoder: the yardstick for its ratio.
func level4(t testing.TB, data []byte) []byte {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(data)
	fw.Close()
	return buf.Bytes()
}

// corpusBlocks is the datastore equivalence corpus (its equivFrames
// scenario: benign campus traffic and a DNS amplification) cut into the
// store's 32-row blocks, each the concatenation of its rows' bytes.
func corpusBlocks(t testing.TB) [][]byte {
	plan := traffic.DefaultPlan(30)
	benign := traffic.NewCampus(traffic.Profile{
		Plan: plan, FlowsPerSecond: 80, Duration: 2 * time.Second, Seed: 4201,
	})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(3),
		Start: 300 * time.Millisecond, Duration: time.Second, Rate: 500, Seed: 4202,
	})
	frames := traffic.Collect(traffic.NewMerge(benign, amp), 0)
	var blocks [][]byte
	for b := 0; b < len(frames); b += 32 {
		var raw []byte
		for _, f := range frames[b:min(b+32, len(frames))] {
			raw = append(raw, f.Data...)
		}
		blocks = append(blocks, raw)
	}
	return blocks
}

// textCorpus is Go source text: this package and internal/inflate.
func textCorpus(t testing.TB) []byte {
	var text []byte
	for _, pat := range []string{"*.go", "../inflate/*.go"} {
		names, _ := filepath.Glob(pat)
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			text = append(text, b...)
		}
	}
	if len(text) < 20000 {
		t.Fatalf("text corpus is only %d bytes", len(text))
	}
	return text
}

// periodic repeats a random phrase of period p to n bytes.
func periodic(r *rand.Rand, p, n int) []byte {
	phrase := make([]byte, p)
	r.Read(phrase)
	out := make([]byte, n)
	for i := range out {
		out[i] = phrase[i%p]
	}
	return out
}

func TestAppendRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	random := make([]byte, 200_000)
	r.Read(random)
	// A random phrase repeated exactly 32 768 bytes on, zeros between:
	// the phrase's only match reaches the window's far end.
	far := append(append(append([]byte{}, random[:300]...), make([]byte, 32768-300)...), random[:300]...)
	cases := map[string][]byte{
		"empty":            {},
		"one byte":         {'x'},
		"three bytes":      []byte("abc"),
		"zeros":            make([]byte, 100_000),
		"random":           random[:50_000],
		"random over 64K":  random,
		"distance 32768":   far,
		"text":             textCorpus(t),
		"text over 64K":    bytes.Repeat(textCorpus(t), 4),
		"runs over 64K":    periodic(r, 7, 300_000),
		"tokens over 64K":  bytes.Repeat([]byte("ab"), 80_000),
		"random then runs": append(random[:70_000:70_000], make([]byte, 70_000)...),
	}
	for p := 1; p <= 300; p++ {
		data := periodic(r, p, 2000+p*7)
		roundTrip(t, "period", data, Append(nil, data))
	}
	for name, data := range cases {
		roundTrip(t, name, data, Append(nil, data))
	}
	if src := Append(nil, cases["random over 64K"]); src[0]>>1&3 != 0 {
		t.Errorf("random bytes open with a block of type %d, not stored", src[0]>>1&3)
	}
	unlike := append(far[:32768:32768], random[300:600]...)
	if n, m := len(Append(nil, far)), len(Append(nil, unlike)); n+250 > m {
		t.Errorf("a phrase 32 768 bytes after itself takes %d bytes, another phrase %d: it was not matched", n, m)
	}
	for _, b := range corpusBlocks(t) {
		roundTrip(t, "corpus block", b, Append(nil, b))
	}
	// Appending keeps what dst held.
	head := []byte("kept")
	if src := Append(head, cases["text"]); !bytes.Equal(src[:4], head) {
		t.Fatal("Append overwrote dst's bytes")
	} else {
		roundTrip(t, "appended", cases["text"], src[4:])
	}
}

// TestAppendRatio holds the encoder's output size to compress/flate level
// 4's: at most 2 % larger on the store's blocks, 10 % on Go source text,
// and never more than a stored block's 5-byte header per 65 535 bytes
// over the input on random bytes.
func TestAppendRatio(t *testing.T) {
	var got, want int
	for _, b := range corpusBlocks(t) {
		got += len(Append(nil, b))
		want += len(level4(t, b))
	}
	if float64(got) > 1.02*float64(want) {
		t.Errorf("corpus blocks: %d bytes, level 4 writes %d (+%.1f%%)", got, want, 100*(float64(got)/float64(want)-1))
	}
	text := textCorpus(t)
	if got, want := len(Append(nil, text)), len(level4(t, text)); float64(got) > 1.10*float64(want) {
		t.Errorf("text: %d bytes, level 4 writes %d (+%.1f%%)", got, want, 100*(float64(got)/float64(want)-1))
	}
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 100, 4096, 65535, 65536, 200_000, 1 << 20} {
		data := make([]byte, n)
		r.Read(data)
		src := Append(nil, data)
		if bound := n + 5*((n+maxStored-1)/maxStored); len(src) > bound {
			t.Errorf("%d random bytes: %d out, stored is %d", n, len(src), bound)
		}
		roundTrip(t, "random", data, src)
	}
}

// TestAppendDeterministic: the output depends on the input alone, not on
// what the pooled scratch encoded before — A, B, A gives A's bytes twice,
// whether B is shorter, longer or the same data shifted.
func TestAppendDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := append(periodic(r, 50, 20_000), textCorpus(t)...)
	for _, b := range [][]byte{a[1:], a[:100], bytes.Repeat(a, 3), periodic(r, 50, 20_000)} {
		first := Append(nil, a)
		Append(nil, b)
		if again := Append(nil, a); !bytes.Equal(first, again) {
			t.Fatal("A encodes differently after B")
		}
	}
	// A new encoder agrees with the pooled ones.
	if got, want := (&encoder{base: math.MaxUint32}).append(nil, a), Append(nil, a); !bytes.Equal(got, want) {
		t.Fatal("a new encoder encodes differently")
	}
}

// TestAppendTableBelowBase: after every call each table entry lies below
// the next call's base, so candidate refuses it as a position before src,
// also when the base would wrap and the table is cleared; and each output
// is what a new encoder writes.
func TestAppendTableBelowBase(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	random := make([]byte, 70_000)
	r.Read(random)
	e := &encoder{base: 1<<32 - window - 10}
	for i := range e.table {
		e.table[i] = 1<<32 - 1 - uint32(i) // entries a wrap would make look near
	}
	for i, data := range [][]byte{bytes.Repeat([]byte("wrap the base "), 3000), textCorpus(t), random, textCorpus(t)[:5000]} {
		if got, want := e.append(nil, data), (&encoder{base: math.MaxUint32}).append(nil, data); !bytes.Equal(got, want) {
			t.Fatalf("call %d encodes differently from a new encoder", i)
		}
		for h, v := range e.table {
			if v >= e.base {
				t.Fatalf("after call %d, entry %d is %d, not below the base %d", i, h, v, e.base)
			}
		}
	}
}

// huffmanCost is the optimal (unlimited) Huffman code's total bits for
// freq: the sum of every merge of the two lightest weights.
func huffmanCost(freq []uint32) int {
	var w []int
	for _, f := range freq {
		if f != 0 {
			w = append(w, int(f))
		}
	}
	if len(w) == 1 {
		return w[0]
	}
	cost := 0
	for len(w) > 1 {
		slices.Sort(w)
		cost += w[0] + w[1]
		w = append(w[2:], w[0]+w[1])
	}
	return cost
}

// TestLengthsLimitedAndComplete: the code lengths are a complete prefix
// code within the limit (one used symbol: one one-bit code), and optimal
// whenever the limit does not bind. Fibonacci frequencies make the
// unlimited code 29 bits deep, so the limit binds at 15 and at 7.
func TestLengthsLimitedAndComplete(t *testing.T) {
	e := new(encoder)
	r := rand.New(rand.NewSource(4))
	fib := make([]uint32, 30)
	fib[0], fib[1] = 1, 1
	for i := 2; i < len(fib); i++ {
		fib[i] = fib[i-1] + fib[i-2]
	}
	for i := 0; i < 2000; i++ {
		freq := make([]uint32, []int{286, 30, 19}[i%3])
		maxLen := []int{15, 15, 7}[i%3]
		switch i % 4 {
		case 0:
			for j, k := range r.Perm(len(freq))[:min(len(freq), len(fib))] {
				freq[k] = fib[j]
			}
		case 1:
			freq[r.Intn(len(freq))] = 1 + uint32(r.Intn(1000))
		default:
			for k := range freq {
				if r.Intn(3) == 0 {
					freq[k] = uint32(r.Intn(1 << uint(r.Intn(15))))
				}
			}
		}
		lens := make([]uint8, len(freq))
		e.lengths(freq, lens, maxLen)
		kraft, used, cost, deepest := 0, 0, 0, 0
		for s, l := range lens {
			if (l == 0) != (freq[s] == 0) || int(l) > maxLen {
				t.Fatalf("case %d: symbol %d, frequency %d, has length %d (limit %d)", i, s, freq[s], l, maxLen)
			}
			if l != 0 {
				kraft += 1 << (maxLen - int(l))
				used++
				cost += int(freq[s]) * int(l)
				deepest = max(deepest, int(l))
			}
		}
		switch {
		case used == 1 && kraft != 1<<(maxLen-1):
			t.Fatalf("case %d: one symbol, not one one-bit code", i)
		case used > 1 && kraft != 1<<maxLen:
			t.Fatalf("case %d: Kraft sum %d, want %d: not a complete code", i, kraft, 1<<maxLen)
		case used > 1 && deepest < maxLen && cost != huffmanCost(freq):
			t.Fatalf("case %d: %d bits, an optimal code takes %d", i, cost, huffmanCost(freq))
		}
	}
}

func TestAppendAllocatesNothing(t *testing.T) {
	data := append(textCorpus(t), make([]byte, 5000)...)
	dst := make([]byte, 0, 2*len(data))
	Append(dst, data)
	if n := testing.AllocsPerRun(100, func() { Append(dst, data) }); n != 0 {
		t.Fatalf("Append allocates %.1f times per call", n)
	}
}

// FuzzDeflate round-trips arbitrary bytes, whole and as two calls whose
// second input is the first's prefix (the pooled table then holds entries
// the second must not use).
func FuzzDeflate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("campus lab campus lab campus lab"))
	f.Add(bytes.Repeat([]byte{0}, 1000))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := Append(nil, data)
		roundTrip(t, "fuzz", data, src)
		Append(nil, data[len(data)/2:])
		if again := Append(nil, data); !bytes.Equal(again, src) {
			t.Fatal("encodes differently after another input")
		}
	})
}

func BenchmarkAppend(b *testing.B) {
	blocks := corpusBlocks(b)
	for _, c := range []struct {
		name string
		data [][]byte
	}{{"corpus-block", blocks}, {"text", [][]byte{textCorpus(b)}}} {
		b.Run(c.name+"/deflate", func(b *testing.B) {
			var dst []byte
			n := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := c.data[i%len(c.data)]
				dst = Append(dst[:0], d)
				n += len(d)
			}
			b.SetBytes(int64(n / b.N))
		})
		b.Run(c.name+"/flate4", func(b *testing.B) {
			var buf bytes.Buffer
			fw, _ := flate.NewWriter(&buf, 4)
			n := 0
			for i := 0; i < b.N; i++ {
				d := c.data[i%len(c.data)]
				buf.Reset()
				fw.Reset(&buf)
				fw.Write(d)
				fw.Close()
				n += len(d)
			}
			b.SetBytes(int64(n / b.N))
		})
	}
}
