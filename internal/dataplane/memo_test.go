package dataplane

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/packet"
)

// Properties of the range-code stage and the per-batch memo in front of the
// compiled ensemble: the code word is the per-field rank, equal code words
// reach equal leaves, and a batch served through the memo is
// indistinguishable — verdict for verdict, bit for bit — from the walk, the
// float reference twin and the per-packet path.

// --- program generators ----------------------------------------------------

// schemaFields resolves the matchable schema to fields, as compileEnsemble
// does.
func schemaFields(t testing.TB) []Field {
	t.Helper()
	fields := make([]Field, len(features.PacketSchema))
	for i, name := range features.PacketSchema {
		f, err := fieldByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fields[i] = f
	}
	return fields
}

// rangeTree hand-builds a two-class tree that binary-searches one schema
// column over the sorted thresholds; neighbouring leaves vote differently,
// so no split is dead and every in-domain threshold becomes a cut.
func rangeTree(col int, thr []float64) []ml.ExportedNode {
	var nodes []ml.ExportedNode
	leaf := 0
	var build func(lo, hi int) int
	build = func(lo, hi int) int {
		idx := len(nodes)
		nodes = append(nodes, ml.ExportedNode{})
		if lo == hi {
			c := []float64{float64(leaf%7 + 1), float64(leaf*3%5 + 1)}
			nodes[idx] = ml.ExportedNode{Feature: -1, Counts: c, Total: c[0] + c[1]}
			leaf++
			return idx
		}
		mid := (lo + hi) / 2
		l := build(lo, mid)
		r := build(mid+1, hi)
		nodes[idx] = ml.ExportedNode{
			Feature: col, Threshold: thr[mid], Left: l, Right: r,
			Counts: []float64{1, 1}, Total: 2,
		}
		return idx
	}
	build(0, len(thr))
	return nodes
}

// halves returns n thresholds first+0.5, first+step+0.5, ...
func halves(first, step, n int) []float64 {
	thr := make([]float64, n)
	for i := range thr {
		thr[i] = float64(first+i*step) + 0.5
	}
	return thr
}

type namedProgram struct {
	name string
	ep   *EnsembleProgram
}

// handProgram lowers hand-built trees exactly as compileEnsemble's exact
// rung does.
func handProgram(t testing.TB, trees [][]ml.ExportedNode) *EnsembleProgram {
	t.Helper()
	ep, err := lowerEnsemble(trees, 2, schemaFields(t), EnsembleConfig{DropClasses: []int{1}, MinConfidence: 0.55}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// memoPrograms is the program population every memo property runs over:
// fitted random forests, plus hand-built shapes that pin the
// edges of the range stage.
func memoPrograms(t testing.TB, rng *rand.Rand) []namedProgram {
	t.Helper()
	var out []namedProgram
	for i := 0; i < 6; i++ {
		ep, err := CompileForestEnsemble(randForest(t, rng), features.PacketSchema, EnsembleConfig{DropClasses: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedProgram{"rand-forest", ep})
	}
	// Column 0 is wire_len, 3 dst_port, 9 ttl (features.PacketSchema order).
	edge := []float64{-1, 0, math.MaxUint32 - 0.5, math.MaxUint32 + 1}
	out = append(out,
		namedProgram{"single-leaf", handProgram(t, [][]ml.ExportedNode{rangeTree(0, nil), rangeTree(3, nil), rangeTree(9, nil)})},
		namedProgram{"wide-field", handProgram(t, [][]ml.ExportedNode{rangeTree(0, halves(0, 1, 300)), rangeTree(3, halves(50, 3, 5))})},
		namedProgram{"wide-sparse", handProgram(t, [][]ml.ExportedNode{rangeTree(0, halves(0, 2, 260)), rangeTree(9, halves(1, 1, 3)), rangeTree(0, halves(1, 2, 9))})},
		namedProgram{"domain-edges", handProgram(t, [][]ml.ExportedNode{rangeTree(9, edge), rangeTree(0, edge[:2])})},
	)
	var perField [][]ml.ExportedNode
	for col := range features.PacketSchema {
		perField = append(perField, rangeTree(col, halves(col, 2, 64)))
	}
	out = append(out, namedProgram{"too-wide", handProgram(t, perField)})
	return out
}

// --- oracles ----------------------------------------------------------------

// leafRows is the test's own walk: the vote-table row each tree reaches.
func leafRows(ep *EnsembleProgram, fv *fieldVector) []int32 {
	rows := make([]int32, len(ep.roots))
	for i, t := range ep.roots {
		for t >= 0 {
			n := &ep.nodes[t]
			if fv.vals[n.field] <= n.cut {
				t = n.left
			} else {
				t = n.right
			}
		}
		rows[i] = ^t
	}
	return rows
}

// naiveCode recomputes the code word by counting, field by field.
func naiveCode(ep *EnsembleProgram, fv *fieldVector) uint64 {
	var w uint64
	for _, r := range ep.ranges {
		rank := 0
		for _, c := range r.cuts {
			if c < fv.vals[r.field] {
				rank++
			}
		}
		w |= uint64(rank) << r.shift
	}
	return w
}

// memoVectors builds one long "batch" that leans on the memo: random
// vectors (far more code words than slots on the wide programs), every cut
// with its two neighbours, a run of identical vectors, and — when two of
// the code words drawn share a slot — a run alternating between them, so
// each lookup evicts the other.
func memoVectors(rng *rand.Rand, ep *EnsembleProgram) (fvs []fieldVector, collided bool) {
	for i := 0; i < 600; i++ {
		fvs = append(fvs, ensRandVector(rng))
	}
	for _, r := range ep.ranges {
		for _, c := range r.cuts {
			fv := ensRandVector(rng)
			fv.set(r.field, c)
			fvs = append(fvs, fv)
			if c > 0 {
				fv.set(r.field, c-1)
				fvs = append(fvs, fv)
			}
			if c < math.MaxUint32 {
				fv.set(r.field, c+1)
				fvs = append(fvs, fv)
			}
		}
	}
	same := ensRandVector(rng)
	for i := 0; i < 50; i++ {
		fvs = append(fvs, same)
	}
	if ep.coded {
		var m ensMemo
		first := map[int]int{} // slot -> index of the first vector that mapped there
		for i := range fvs {
			code := ep.code(&fvs[i])
			j, seen := first[m.slot(code)]
			if !seen {
				first[m.slot(code)] = i
				continue
			}
			if ep.code(&fvs[j]) != code {
				a, b := fvs[j], fvs[i]
				for k := 0; k < 10; k++ {
					fvs = append(fvs, a, b)
				}
				return fvs, true
			}
		}
	}
	return fvs, false
}

// --- properties -------------------------------------------------------------

// TestEnsembleRangeTables pins what the compile-time range stage collects:
// sorted distinct cuts per tested field, nothing for constant splits, bit
// positions that do not overlap — and no range stage at all when the ranks
// do not fit a 64-bit word (ten fields of 64 cuts need 70). Every ranged
// field's rank table is held to the count of cuts below each value, on the
// memo population, a fastloop-shaped ensemble and FuzzEnsembleCompile's
// seed corpus.
func TestEnsembleRangeTables(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	forest, _, _, _ := trainPacketForest(t)
	fastloop, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{DropClasses: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !fastloop.coded || len(fastloop.ranges) < 3 {
		t.Fatalf("fastloop-shaped ensemble: coded %v with %d range tables", fastloop.coded, len(fastloop.ranges))
	}
	checkRankTables(t, "fastloop", fastloop)
	// Cuts on the last values of a bucket and on the domain's top: wire_len
	// buckets are 256 wide, ttl's one value each.
	checkRankTables(t, "bucket-edges", handProgram(t, [][]ml.ExportedNode{
		rangeTree(0, []float64{253.5, 254.5, 255.5, 256.5, 510.5, 511.5, 65534.5, 65535.5}),
		rangeTree(9, []float64{0.5, 253.5, 254.5, 255.5}),
	}))
	corpus := fuzzCorpus(t)
	if len(corpus) <= len(fuzzSeeds) {
		t.Fatalf("fuzz corpus holds %d inputs, want the testdata files besides the %d in-code seeds", len(corpus), len(fuzzSeeds))
	}
	for i, in := range corpus {
		if _, ep, _, err := in.compile(rand.New(rand.NewSource(in.seed))); err == nil {
			checkRankTables(t, fmt.Sprintf("fuzz seed %d", i), ep)
		}
	}
	for _, p := range memoPrograms(t, rng) {
		ep := p.ep
		checkRankTables(t, p.name, ep)
		want := map[Field]map[uint32]bool{}
		for _, n := range ep.nodes {
			if want[n.field] == nil {
				want[n.field] = map[uint32]bool{}
			}
			want[n.field][n.cut] = true
		}
		need := 0
		for _, cuts := range want {
			need += bits.Len(uint(len(cuts)))
		}
		if ep.coded != (need <= 64) {
			t.Fatalf("%s: coded=%v for %d bits of rank", p.name, ep.coded, need)
		}
		if !ep.coded {
			if ep.ranges != nil {
				t.Fatalf("%s: an uncoded program kept %d range tables", p.name, len(ep.ranges))
			}
			continue
		}
		if len(ep.ranges) != len(want) {
			t.Fatalf("%s: %d range tables for %d tested fields", p.name, len(ep.ranges), len(want))
		}
		width := 0
		for i, r := range ep.ranges {
			if i > 0 && r.field <= ep.ranges[i-1].field {
				t.Fatalf("%s: range tables out of field order", p.name)
			}
			if len(r.cuts) != len(want[r.field]) {
				t.Fatalf("%s: field %v has %d cuts, nodes test %d", p.name, r.field, len(r.cuts), len(want[r.field]))
			}
			for j, c := range r.cuts {
				if !want[r.field][c] || (j > 0 && c <= r.cuts[j-1]) {
					t.Fatalf("%s: field %v cuts %v not the sorted distinct node cuts", p.name, r.field, r.cuts)
				}
			}
			if int(r.shift) != width {
				t.Fatalf("%s: field %v at bit %d, want %d", p.name, r.field, r.shift, width)
			}
			width += bits.Len(uint(len(r.cuts)))
		}
		switch p.name {
		case "single-leaf":
			if len(ep.ranges) != 0 || !ep.coded {
				t.Fatalf("single-leaf trees: ranges %v coded %v, want the empty code word", ep.ranges, ep.coded)
			}
		case "wide-field":
			if n := len(ep.ranges[0].cuts); n != 300 {
				t.Fatalf("wide field has %d cuts, want 300", n)
			}
		case "domain-edges":
			// -1 and 2^32 make constant splits; 0 and 2^32-1.5 survive.
			ttl := ep.ranges[len(ep.ranges)-1]
			if ttl.field != fieldTTL || len(ttl.cuts) != 2 || ttl.cuts[0] != 0 || ttl.cuts[1] != math.MaxUint32-1 {
				t.Fatalf("domain-edge cuts = %+v, want ttl {0, 2^32-2}", ttl)
			}
		}
	}
}

// checkRankTables demands, for every ranged field of ep, that the code
// word carries the count of the field's cuts below v: for every v in
// [0, 0xffff], at each cut and cut ± 1, and above 0xffff up to MaxUint32.
// Each probe sets every field to v, so one code word checks every table.
func checkRankTables(t *testing.T, name string, ep *EnsembleProgram) {
	t.Helper()
	if !ep.coded {
		return
	}
	// The independent count: each field's cuts as the nodes test them.
	cuts := map[Field][]uint32{}
	for _, n := range ep.nodes {
		if !slices.Contains(cuts[n.field], n.cut) {
			cuts[n.field] = append(cuts[n.field], n.cut)
		}
	}
	for _, c := range cuts {
		slices.Sort(c)
	}
	probes := []uint32{0x10000, 0x10001, 0x1ffff, 0xfffff, math.MaxUint32 - 1, math.MaxUint32}
	for v := uint32(0); v <= 0xffff; v++ {
		probes = append(probes, v)
	}
	for _, c := range cuts {
		for _, v := range c {
			probes = append(probes, v, v+1, v-1) // wraps at the domain's ends: still a probe
		}
	}
	var fv fieldVector
	for _, v := range probes {
		for f := Field(0); f < numFields; f++ {
			fv.set(f, v)
		}
		code := ep.code(&fv)
		for _, r := range ep.ranges {
			width := bits.Len(uint(len(r.cuts)))
			got := code >> r.shift & (1<<width - 1)
			want, _ := slices.BinarySearch(cuts[r.field], v)
			if got != uint64(want) {
				t.Fatalf("%s: field %v (%d cuts, bucket %d) ranks %d at %d, want %d cuts below it",
					name, r.field, len(r.cuts), r.bucket, got, v, want)
			}
		}
	}
}

// fuzzCorpus is FuzzEnsembleCompile's seed corpus: the in-code seeds plus
// every file under testdata/fuzz/FuzzEnsembleCompile.
func fuzzCorpus(t *testing.T) []fuzzInput {
	t.Helper()
	out := append([]fuzzInput(nil), fuzzSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEnsembleCompile", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 9 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a FuzzEnsembleCompile input", file)
		}
		var vals [8]uint64
		for i, line := range lines[1:] {
			lit, ok := strings.CutSuffix(line, ")")
			typ, lit, ok2 := strings.Cut(lit, "(")
			var v uint64
			switch {
			case !ok || !ok2:
				err = fmt.Errorf("line %q", line)
			case typ == "byte":
				var r string
				r, err = strconv.Unquote(lit)
				if err == nil {
					ru, _ := utf8.DecodeRuneInString(r)
					v = uint64(byte(ru))
				}
			default:
				var n int64
				n, err = strconv.ParseInt(lit, 0, 64)
				v = uint64(n)
			}
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			vals[i] = v
		}
		out = append(out, fuzzInput{int64(vals[0]), uint8(vals[1]), uint8(vals[2]), uint8(vals[3]),
			uint8(vals[4]), uint8(vals[5]), uint8(vals[6]), uint8(vals[7])})
	}
	return out
}

// TestEnsembleCodeWordDeterminesLeaves is the memo's soundness argument
// checked against the walk itself: the code word is the per-field rank, and
// two vectors with equal code words reach the same leaf row in every tree.
func TestEnsembleCodeWordDeterminesLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(522))
	for _, p := range memoPrograms(t, rng) {
		ep := p.ep
		if !ep.coded {
			continue // no range stage: the walk alone serves it
		}
		fvs, _ := memoVectors(rng, ep)
		seen := map[uint64][]int32{}
		for i := range fvs {
			code := ep.code(&fvs[i])
			if want := naiveCode(ep, &fvs[i]); code != want {
				t.Fatalf("%s: code %#x != per-field rank count %#x (fv %v)", p.name, code, want, fvs[i].vals)
			}
			rows := leafRows(ep, &fvs[i])
			if prev, ok := seen[code]; !ok {
				seen[code] = rows
			} else {
				for tr := range rows {
					if rows[tr] != prev[tr] {
						t.Fatalf("%s: code %#x reaches leaf %d and %d in tree %d", p.name, code, prev[tr], rows[tr], tr)
					}
				}
			}
		}
		if p.name == "wide-field" && len(seen) <= ensMemoSlots {
			t.Fatalf("wide-field drew %d code words; the eviction case needs more than %d", len(seen), ensMemoSlots)
		}
	}
}

// TestEnsembleMemoEquivalence serves each stress sequence through one memo
// and demands the walk's and the float reference's verdict at every
// position — through evictions, collisions and repeats.
func TestEnsembleMemoEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(523))
	anyCollision := false
	for _, p := range memoPrograms(t, rng) {
		ep := p.ep
		fvs, collided := memoVectors(rng, ep)
		anyCollision = anyCollision || collided
		if p.name == "wide-field" && !collided {
			t.Fatal("300 ranks over 128 slots must collide")
		}
		es := &ensembleState{ep: ep}
		if es.memoizes() != ep.coded {
			t.Fatalf("%s: memoizes()=%v for coded=%v", p.name, es.memoizes(), ep.coded)
		}
		if !ep.coded {
			continue // the entry points give such a program no memo
		}
		var m ensMemo
		for i := range fvs {
			got := es.eval(&fvs[i], &m)
			if walk := ep.evalCompiled(&fvs[i]); got != walk {
				t.Fatalf("%s: vector %d: memo %+v != walk %+v (fv %v)", p.name, i, got, walk, fvs[i].vals)
			}
			if ref := ep.evalRef(&fvs[i]); got != ref {
				t.Fatalf("%s: vector %d: memo %+v != reference %+v (fv %v)", p.name, i, got, ref, fvs[i].vals)
			}
		}
		switch {
		case m.hits+m.misses != uint64(len(fvs)) || m.hits < 49:
			t.Fatalf("%s: %d hits + %d misses over %d vectors with a 50-long repeat", p.name, m.hits, m.misses, len(fvs))
		case p.name == "single-leaf" && m.misses != 1:
			t.Fatalf("empty code word missed %d times, want once", m.misses)
		}
		// The reference twin must not touch the memo.
		scan := &ensembleState{ep: ep, scan: true}
		var untouched ensMemo
		scan.eval(&fvs[0], &untouched)
		if scan.memoizes() || untouched != (ensMemo{}) {
			t.Fatalf("%s: the reference walk wrote the memo", p.name)
		}
	}
	if !anyCollision {
		t.Fatal("no program produced a slot collision; the case went unexercised")
	}
}

// --- the switch's batch entry points ----------------------------------------

// smallSummary draws a parsed-packet view whose fields sit in the 0..9
// range the random datasets (and so the fitted cuts) live in.
func smallSummary(rng *rand.Rand, pool []netip.Addr) packet.Summary {
	s := randTestSummary(rng, pool)
	s.WireLen = rng.Intn(10)
	s.Tuple.SrcPort = uint16(rng.Intn(10))
	s.Tuple.DstPort = uint16(rng.Intn(10))
	s.TTL = uint8(rng.Intn(10))
	if s.IsDNS {
		s.DNSAnswerCnt = rng.Intn(10)
		if rng.Intn(2) == 0 {
			s.DNSQueryType = packet.DNSTypeANY
		}
	}
	return s
}

// memoSummaries mixes full-range and small-valued packets with a run of
// identical ones.
func memoSummaries(rng *rand.Rand, n int) []packet.Summary {
	pool := testAddrPool()
	sums := make([]packet.Summary, 0, n)
	for len(sums) < n {
		switch {
		case len(sums) >= n/2 && len(sums) < n/2+n/8:
			sums = append(sums, sums[len(sums)-1])
		case rng.Intn(3) == 0:
			sums = append(sums, randTestSummary(rng, pool))
		default:
			sums = append(sums, smallSummary(rng, pool))
		}
	}
	return sums
}

// batchTwins is a switch on the compiled path and one forced onto the float
// reference walk, reloaded with each program under test.
type batchTwins struct{ fast, scan *Switch }

func newBatchTwins() batchTwins {
	tw := batchTwins{NewSwitch(DefaultResources()), NewSwitch(DefaultResources())}
	tw.fast.setScanOnly(false)
	tw.scan.setScanOnly(true)
	return tw
}

// check demands one answer from every way a switch can classify the batch:
// ProcessBatchAt, ClassifyBatch, per-packet ProcessAt, and the twin on the
// reference walk.
func (tw batchTwins) check(t testing.TB, name string, ep *EnsembleProgram, sums []packet.Summary) {
	t.Helper()
	for _, sw := range []*Switch{tw.fast, tw.scan} {
		if err := sw.LoadEnsemble(ep); err != nil {
			t.Fatal(err)
		}
	}
	ptrs := make([]*packet.Summary, len(sums))
	for i := range sums {
		ptrs[i] = &sums[i]
	}
	batch := tw.fast.ProcessBatchAt(nil, sums, nil)
	scanBatch := tw.scan.ProcessBatchAt(nil, sums, nil)
	classified := make([]Verdict, len(sums))
	tw.fast.ClassifyBatch(ptrs, classified)
	for i := range sums {
		single := tw.fast.ProcessAt(0, &sums[i])
		ref := tw.scan.ProcessAt(0, &sums[i])
		if batch[i] != single || classified[i] != single || single != ref || scanBatch[i] != ref {
			t.Fatalf("%s: pkt %d: ProcessBatchAt %+v ClassifyBatch %+v ProcessAt %+v scan twin %+v scan batch %+v",
				name, i, batch[i], classified[i], single, ref, scanBatch[i])
		}
	}
}

// TestEnsembleBatchPathsAgree runs the whole program population through
// both batch entry points at batch sizes on either side of the memo's slot
// count.
func TestEnsembleBatchPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(524))
	tw := newBatchTwins()
	for _, p := range memoPrograms(t, rng) {
		for _, n := range []int{1, 64, 700} {
			tw.check(t, p.name, p.ep, memoSummaries(rng, n))
		}
	}
}

// TestEnsembleBatchWithFilters: with the ensemble loaded and filters
// installed, ClassifyBatch and ProcessBatchAt probe the filters per packet
// before the memo is consulted, and agree with ProcessAt.
func TestEnsembleBatchWithFilters(t *testing.T) {
	forest, _, _, _ := trainPacketForest(t)
	ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{DropClasses: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	pool := testAddrPool()
	swBatch, swSeq := NewSwitch(DefaultResources()), NewSwitch(DefaultResources())
	for _, sw := range []*Switch{swBatch, swSeq} {
		if err := sw.LoadEnsemble(ep); err != nil {
			t.Fatal(err)
		}
		if err := sw.InstallFilter(FilterKey{DstIP: pool[2]}, ActionDrop); err != nil {
			t.Fatal(err)
		}
		if err := sw.InstallFilter(FilterKey{SrcIP: pool[3]}, ActionAlert); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(525))
	sums := make([]packet.Summary, 600)
	ptrs := make([]*packet.Summary, len(sums))
	for i := range sums {
		sums[i], ptrs[i] = randTestSummary(rng, pool), &sums[i]
	}
	pre := make([]Verdict, len(sums))
	swBatch.ClassifyBatch(ptrs, pre)
	got := swBatch.ProcessBatchAt(nil, sums, nil)
	filtered, classified := 0, 0
	for i := range sums {
		want := swSeq.ProcessAt(0, &sums[i])
		if got[i] != want || pre[i] != want {
			t.Fatalf("pkt %d: batch %+v classify %+v != sequential %+v", i, got[i], pre[i], want)
		}
		if want.FilterHit {
			filtered++
		} else {
			classified++
		}
	}
	if filtered == 0 || classified == 0 {
		t.Fatalf("scenario vacuous: %d filtered, %d classified", filtered, classified)
	}
	if b, s := swBatch.Stats(), swSeq.Stats(); b.Processed != s.Processed || b.Dropped != s.Dropped ||
		b.FilterHits != s.FilterHits || b.Permitted != s.Permitted {
		t.Fatalf("stats diverged: batch %+v sequential %+v", b, s)
	}
}

// TestEnsembleMemoCounters: the hit/miss pair accounts for exactly the
// packets the ensemble stage classified, flushed by both entry points.
func TestEnsembleMemoCounters(t *testing.T) {
	forest, _, _, _ := trainPacketForest(t)
	ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{DropClasses: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(DefaultResources())
	sw.setScanOnly(false)
	if err := sw.LoadEnsemble(ep); err != nil {
		t.Fatal(err)
	}
	pool := testAddrPool()
	if err := sw.InstallFilter(FilterKey{DstIP: pool[2]}, ActionDrop); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(526))
	one := randTestSummary(rng, pool)
	one.Tuple.DstIP = pool[0]
	sums := make([]packet.Summary, 40)
	ptrs := make([]*packet.Summary, len(sums))
	for i := range sums {
		sums[i], ptrs[i] = one, &sums[i]
	}
	sums[7].Tuple.DstIP = pool[2] // filtered: never reaches the ensemble

	hit0, miss0 := obsEnsMemoHit.Value(), obsEnsMemoMiss.Value()
	sw.ProcessBatchAt(nil, sums, nil)
	if h, m := obsEnsMemoHit.Value()-hit0, obsEnsMemoMiss.Value()-miss0; h != 38 || m != 1 {
		t.Fatalf("ProcessBatchAt: %d hits %d misses, want 38 and 1", h, m)
	}
	sw.ClassifyBatch(ptrs, make([]Verdict, len(sums)))
	if h, m := obsEnsMemoHit.Value()-hit0, obsEnsMemoMiss.Value()-miss0; h != 76 || m != 2 {
		t.Fatalf("after ClassifyBatch: %d hits %d misses, want 76 and 2 (a memo lives for one batch)", h, m)
	}
	sw.ProcessAt(0, &one)
	sw.setScanOnly(true)
	sw.ProcessBatchAt(nil, sums, nil)
	if h, m := obsEnsMemoHit.Value()-hit0, obsEnsMemoMiss.Value()-miss0; h != 76 || m != 2 {
		t.Fatalf("ProcessAt or the reference walk moved the memo counters: %d hits %d misses", h, m)
	}
}

// TestEnsembleMemoBypass: a batch whose code words never repeat stops
// consulting its memo after memoProbe lookups and walks the rest, with the
// per-packet verdicts; a batch whose code words repeat keeps its memo to
// the end.
func TestEnsembleMemoBypass(t *testing.T) {
	forest, _, _, _ := trainPacketForest(t)
	ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{DropClasses: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(DefaultResources())
	if err := sw.LoadEnsemble(ep); err != nil {
		t.Fatal(err)
	}
	pool := testAddrPool()
	rng := rand.New(rand.NewSource(527))
	distinct := distinctSummaries(t, ep, rng, pool, 256, 1)
	repeating := make([]packet.Summary, 256)
	for i := range repeating {
		repeating[i] = distinct[i%8]
	}
	for _, tc := range []struct {
		name                   string
		sums                   []packet.Summary
		hits, misses, bypassed uint64
	}{
		{"distinct", distinct, 0, memoProbe, 256 - memoProbe},
		{"repeating", repeating, 248, 8, 0},
	} {
		hit0, miss0, byp0 := obsEnsMemoHit.Value(), obsEnsMemoMiss.Value(), obsEnsMemoBypass.Value()
		got := sw.ProcessBatchAt(nil, tc.sums, nil)
		h, m, b := obsEnsMemoHit.Value()-hit0, obsEnsMemoMiss.Value()-miss0, obsEnsMemoBypass.Value()-byp0
		if h != tc.hits || m != tc.misses || b != tc.bypassed {
			t.Fatalf("%s: %d hits %d misses %d bypassed, want %d %d %d", tc.name, h, m, b, tc.hits, tc.misses, tc.bypassed)
		}
		for i := range tc.sums {
			if want := sw.ProcessAt(0, &tc.sums[i]); got[i] != want {
				t.Fatalf("%s: pkt %d: batch %+v != per-packet %+v", tc.name, i, got[i], want)
			}
		}
	}
}
