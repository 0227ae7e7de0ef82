package dataplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"campuslab/internal/features"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// --- generators -----------------------------------------------------------

// randDisjointProgram builds a rule list by recursive domain partitioning —
// the shape a distilled decision tree compiles to: disjoint conjunctions of
// per-field intervals, with gaps falling through to the default action.
func randDisjointProgram(rng *rand.Rand, maxRules int) *Program {
	p := &Program{Name: "rand-disjoint", Default: ActionKind(rng.Intn(2))}
	var root cellBounds
	for f := Field(0); f < numFields; f++ {
		root.hi[f] = f.maxValue()
	}
	var build func(c cellBounds, depth int)
	build = func(c cellBounds, depth int) {
		if len(p.Rules) >= maxRules {
			return
		}
		if depth == 0 || rng.Intn(4) == 0 {
			if rng.Intn(4) == 0 {
				return // gap: the default decides this cell
			}
			var conds []RangeCond
			for f := Field(0); f < numFields; f++ {
				if c.lo[f] != 0 || c.hi[f] != f.maxValue() {
					conds = append(conds, RangeCond{Field: f, Lo: c.lo[f], Hi: c.hi[f]})
				}
			}
			if len(conds) == 0 {
				return // a condless rule would shadow the whole space
			}
			p.Rules = append(p.Rules, Rule{
				Conds: conds, Action: ActionKind(rng.Intn(4)),
				Class: rng.Intn(3), Confidence: float64(rng.Intn(100)) / 100,
			})
			return
		}
		f := Field(rng.Intn(int(numFields)))
		if c.lo[f] >= c.hi[f] {
			build(c, depth-1)
			return
		}
		cut := c.lo[f] + 1 + uint32(rng.Int63n(int64(c.hi[f]-c.lo[f])))
		left, right := c, c
		left.hi[f] = cut - 1
		right.lo[f] = cut
		build(left, depth-1)
		build(right, depth-1)
	}
	build(root, 6)
	return p
}

// randOverlappingProgram builds rules with arbitrary (overlapping) interval
// conjunctions. The DAG builder claims exactness under first-match-wins for
// these too.
func randOverlappingProgram(rng *rand.Rand) *Program {
	p := &Program{Name: "rand-overlap", Default: ActionKind(rng.Intn(2))}
	nRules := 1 + rng.Intn(6)
	for i := 0; i < nRules; i++ {
		var conds []RangeCond
		nConds := 1 + rng.Intn(2)
		for j := 0; j < nConds; j++ {
			f := Field(rng.Intn(int(numFields)))
			max := int64(f.maxValue())
			lo := uint32(rng.Int63n(max + 1))
			hi := lo + uint32(rng.Int63n(max-int64(lo)+1))
			conds = append(conds, RangeCond{Field: f, Lo: lo, Hi: hi})
		}
		p.Rules = append(p.Rules, Rule{
			Conds: conds, Action: ActionKind(rng.Intn(4)),
			Class: rng.Intn(3), Confidence: float64(rng.Intn(100)) / 100,
		})
	}
	return p
}

// randVector draws field values mostly inside the field widths, sometimes
// far outside them (hand-built vectors are not width-clamped and the DAG
// must agree with the scan reference there too).
func randVector(rng *rand.Rand) fieldVector {
	var fv fieldVector
	for f := Field(0); f < numFields; f++ {
		if rng.Intn(6) == 0 {
			fv.set(f, rng.Uint32())
		} else {
			fv.set(f, uint32(rng.Int63n(int64(f.maxValue())+1)))
		}
	}
	return fv
}

// scanVerdict is the independent linear-scan reference the DAG is checked
// against.
func scanVerdict(p *Program, fv *fieldVector) Verdict {
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.matches(fv) {
			return Verdict{Action: r.Action, Class: r.Class, Confidence: r.Confidence, RuleIndex: i}
		}
	}
	return Verdict{Action: p.Default, RuleIndex: -1}
}

func testAddrPool() []netip.Addr {
	return []netip.Addr{
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"),
		netip.MustParseAddr("10.0.1.7"),
		netip.MustParseAddr("192.0.2.9"),
		netip.MustParseAddr("198.51.100.3"),
	}
}

func randTestSummary(rng *rand.Rand, pool []netip.Addr) packet.Summary {
	var s packet.Summary
	s.Tuple.SrcIP = pool[rng.Intn(len(pool))]
	s.Tuple.DstIP = pool[rng.Intn(len(pool))]
	s.Tuple.SrcPort = uint16(rng.Intn(1 << 16))
	s.Tuple.DstPort = uint16(rng.Intn(1 << 16))
	switch rng.Intn(3) {
	case 0:
		s.Tuple.Proto = packet.IPProtocolTCP
		s.HasTCP = true
		if rng.Intn(2) == 0 {
			s.TCPFlags = packet.TCPSyn
		}
	case 1:
		s.Tuple.Proto = packet.IPProtocolUDP
		s.HasUDP = true
		if rng.Intn(3) == 0 {
			s.IsDNS = true
			s.DNSResponse = rng.Intn(2) == 0
			s.DNSAnswerCnt = rng.Intn(30)
		}
	}
	s.WireLen = 60 + rng.Intn(1500)
	s.TTL = uint8(rng.Intn(256))
	return s
}

// randFilterKey draws a key in one of the five probe shapes so installed
// entries are actually reachable by the verdict path.
func randFilterKey(rng *rand.Rand, pool []netip.Addr) FilterKey {
	var k FilterKey
	switch rng.Intn(5) {
	case 0: // full tuple
		k = FilterKey{DstIP: pool[rng.Intn(len(pool))], SrcIP: pool[rng.Intn(len(pool))],
			DstPort: uint16(1 + rng.Intn(1024)), Proto: packet.IPProtocolUDP}
	case 1: // dst+port+proto
		k = FilterKey{DstIP: pool[rng.Intn(len(pool))], DstPort: uint16(1 + rng.Intn(1024)), Proto: packet.IPProtocolUDP}
	case 2: // dst+proto
		k = FilterKey{DstIP: pool[rng.Intn(len(pool))], Proto: packet.IPProtocolTCP}
	case 3: // dst only
		k = FilterKey{DstIP: pool[rng.Intn(len(pool))]}
	default: // src only
		k = FilterKey{SrcIP: pool[rng.Intn(len(pool))]}
	}
	return k
}

// --- equivalence properties -----------------------------------------------

func TestDAGScanEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 150; trial++ {
		var p *Program
		if trial%3 == 2 {
			p = randOverlappingProgram(rng)
		} else {
			p = randDisjointProgram(rng, 1+rng.Intn(24))
		}
		dag := compileDAG(p)
		if dag == nil {
			t.Fatalf("trial %d: compile fell back (%d rules)", trial, len(p.Rules))
		}
		for i := 0; i < 400; i++ {
			fv := randVector(rng)
			got, want := dag.eval(&fv), scanVerdict(p, &fv)
			if got != want {
				t.Fatalf("trial %d (%s, %d rules): dag=%+v scan=%+v fv=%+v",
					trial, p.Name, len(p.Rules), got, want, fv.vals)
			}
		}
	}
}

func TestDAGScanEquivalenceDistilledTree(t *testing.T) {
	tree, _, _ := trainPacketTree(t)
	prog, err := Compile(tree, features.PacketSchema, CompileConfig{
		DropClasses: []int{1}, MinConfidence: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(DefaultResources())
	if err := sw.Load(prog); err != nil {
		t.Fatal(err)
	}
	if !sw.compiled() {
		t.Fatal("distilled program did not compile")
	}
	dag := sw.state.Load().dag
	rng := rand.New(rand.NewSource(402))
	for i := 0; i < 5000; i++ {
		fv := randVector(rng)
		if got, want := dag.eval(&fv), scanVerdict(prog, &fv); got != want {
			t.Fatalf("dag=%+v scan=%+v fv=%+v", got, want, fv.vals)
		}
	}
}

// TestSwitchPipelineEquivalence runs the same randomized program, filter
// installs, and packet sequence through a compiled switch and a
// scan-only twin, demanding identical verdicts and counters end to end.
func TestSwitchPipelineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	pool := testAddrPool()
	for trial := 0; trial < 25; trial++ {
		prog := randDisjointProgram(rng, 12)
		swDag := NewSwitch(DefaultResources())
		swScan := NewSwitch(DefaultResources())
		swScan.setScanOnly(true)
		if err := swDag.Load(prog); err != nil {
			t.Fatal(err)
		}
		if err := swScan.Load(prog); err != nil {
			t.Fatal(err)
		}
		if swDag.compiled() == swScan.compiled() {
			t.Fatal("twins must run different rule paths")
		}
		for i := 0; i < 6; i++ {
			k := randFilterKey(rng, pool)
			act := ActionDrop
			if rng.Intn(3) == 0 {
				act = ActionAlert
			}
			if err := swDag.InstallFilter(k, act); err != nil {
				t.Fatal(err)
			}
			if err := swScan.InstallFilter(k, act); err != nil {
				t.Fatal(err)
			}
		}
		ts := time.Duration(0)
		for i := 0; i < 800; i++ {
			ts += time.Duration(rng.Intn(2_000_000))
			s := randTestSummary(rng, pool)
			vd, vs := swDag.ProcessAt(ts, &s), swScan.ProcessAt(ts, &s)
			if vd != vs {
				t.Fatalf("trial %d pkt %d: dag=%+v scan=%+v", trial, i, vd, vs)
			}
		}
		sd, ss := swDag.Stats(), swScan.Stats()
		if sd.Processed != ss.Processed || sd.Permitted != ss.Permitted ||
			sd.Dropped != ss.Dropped || sd.Alerted != ss.Alerted ||
			sd.Punted != ss.Punted || sd.FilterHits != ss.FilterHits {
			t.Fatalf("trial %d: stats diverged: dag=%+v scan=%+v", trial, sd, ss)
		}
		for i := range sd.PerRule {
			if sd.PerRule[i] != ss.PerRule[i] {
				t.Fatalf("trial %d: perRule[%d] %d != %d", trial, i, sd.PerRule[i], ss.PerRule[i])
			}
		}
	}
}

// --- counter accounting ---------------------------------------------------

// TestSwitchCounterAccounting checks every verdict lands in exactly one
// action counter and exactly one attribution bucket.
func TestSwitchCounterAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	pool := testAddrPool()
	sw := NewSwitch(DefaultResources())
	if err := sw.Load(randDisjointProgram(rng, 10)); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallFilter(FilterKey{DstIP: pool[0]}, ActionDrop); err != nil {
		t.Fatal(err)
	}

	var byAction [4]uint64
	var filterHits uint64
	perRule := map[int]uint64{}
	ts := time.Duration(0)
	const n = 3000
	for i := 0; i < n; i++ {
		ts += time.Duration(rng.Intn(1_500_000))
		s := randTestSummary(rng, pool)
		v := sw.ProcessAt(ts, &s)
		byAction[v.Action]++
		if v.FilterHit {
			filterHits++
		} else if v.RuleIndex >= 0 {
			perRule[v.RuleIndex]++
		}
	}
	st := sw.Stats()
	if st.Processed != n {
		t.Fatalf("processed %d != %d", st.Processed, n)
	}
	if got := st.Permitted + st.Dropped + st.Alerted + st.Punted; got != st.Processed {
		t.Fatalf("action counters sum %d != processed %d (%+v)", got, st.Processed, st)
	}
	if st.Permitted != byAction[ActionPermit] || st.Dropped != byAction[ActionDrop] ||
		st.Alerted != byAction[ActionAlert] || st.Punted != byAction[ActionPunt] {
		t.Fatalf("per-action counts diverge from verdicts: stats=%+v verdicts=%v", st, byAction)
	}
	if st.FilterHits != filterHits {
		t.Fatalf("filterHits %d != %d", st.FilterHits, filterHits)
	}
	var ruleSum uint64
	for i, c := range st.PerRule {
		ruleSum += c
		if c != perRule[i] {
			t.Fatalf("perRule[%d] = %d, verdicts saw %d", i, c, perRule[i])
		}
	}
	if ruleSum+filterHits+byAction[ActionPermit] < st.Processed-st.Permitted {
		t.Fatal("attribution lost verdicts")
	}

	sw.resetCounters()
	st = sw.Stats()
	if st.Processed != 0 || st.Permitted != 0 || st.FilterHits != 0 {
		t.Fatalf("reset left counters: %+v", st)
	}
	for i, c := range st.PerRule {
		if c != 0 {
			t.Fatalf("reset left perRule[%d]=%d", i, c)
		}
	}
}

// --- batch path -----------------------------------------------------------

func TestProcessBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	pool := testAddrPool()
	prog := randDisjointProgram(rng, 14)
	swBatch := NewSwitch(DefaultResources())
	swSeq := NewSwitch(DefaultResources())
	for _, sw := range []*Switch{swBatch, swSeq} {
		if err := sw.Load(prog); err != nil {
			t.Fatal(err)
		}
		if err := sw.InstallFilter(FilterKey{DstIP: pool[2]}, ActionDrop); err != nil {
			t.Fatal(err)
		}
	}
	sums := make([]packet.Summary, 500)
	tss := make([]time.Duration, len(sums))
	ts := time.Duration(0)
	for i := range sums {
		ts += time.Duration(rng.Intn(1_000_000))
		sums[i], tss[i] = randTestSummary(rng, pool), ts
	}
	got := swBatch.ProcessBatchAt(tss, sums, nil)
	for i := range sums {
		want := swSeq.ProcessAt(tss[i], &sums[i])
		if got[i] != want {
			t.Fatalf("pkt %d: batch=%+v seq=%+v", i, got[i], want)
		}
	}
	if b, s := swBatch.Stats(), swSeq.Stats(); b.Processed != s.Processed || b.Dropped != s.Dropped ||
		b.FilterHits != s.FilterHits || b.Permitted != s.Permitted {
		t.Fatalf("stats diverged: batch=%+v seq=%+v", b, s)
	}

	// ProcessBatch (t=0 convenience form) agrees with Process.
	v1 := swBatch.ProcessBatchAt(nil, sums[:10], nil)
	for i := 0; i < 10; i++ {
		if v2 := swSeq.ProcessAt(0, &sums[i]); v1[i] != v2 {
			t.Fatalf("pkt %d: ProcessBatch=%+v Process=%+v", i, v1[i], v2)
		}
	}
}

// TestClassifyBatchCommit exercises the control loop's precompute/commit
// split: classification is pure, commits tally, and installs invalidate.
func TestClassifyBatchCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	pool := testAddrPool()
	sw := NewSwitch(DefaultResources())
	if err := sw.Load(randDisjointProgram(rng, 10)); err != nil {
		t.Fatal(err)
	}
	sums := make([]*packet.Summary, 64)
	for i := range sums {
		s := randTestSummary(rng, pool)
		sums[i] = &s
	}
	out := make([]Verdict, len(sums))
	gen := sw.ClassifyBatch(sums, out)
	if sw.Stats().Processed != 0 {
		t.Fatal("classification recorded counters")
	}
	for range sums {
		if sw.StateGen() != gen {
			t.Fatal("generation moved without an install")
		}
	}
	sw.CommitBatch(out[:len(sums)/3])
	sw.CommitBatch(out[len(sums)/3:])
	if got := sw.Stats().Processed; got != uint64(len(sums)) {
		t.Fatalf("commits recorded %d, want %d", got, len(sums))
	}

	// An install bumps the generation.
	if err := sw.InstallFilter(FilterKey{DstIP: pool[0]}, ActionDrop); err != nil {
		t.Fatal(err)
	}
	if sw.StateGen() == gen {
		t.Fatal("install did not bump generation")
	}
}

// --- immutability and knobs -----------------------------------------------

func TestProgramViewImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	orig := randDisjointProgram(rng, 8)
	sw := NewSwitch(DefaultResources())
	if err := sw.Load(orig); err != nil {
		t.Fatal(err)
	}

	// Mutating the caller's program after Load must not reach the switch.
	origAction := orig.Rules[0].Action
	orig.Rules[0].Action = ActionPunt
	orig.Rules[0].Conds[0].Lo = 0xdeadbeef
	view := sw.program()
	if view.Rules[0].Action != origAction {
		t.Fatal("Load did not defensively copy the program")
	}

	// Mutating the returned view must not reach the switch either.
	origDefault := view.Default
	view.Rules[0].Action = ActionAlert
	view.Rules[0].Conds[0].Hi = 0
	view.Default = ActionPunt
	again := sw.program()
	if again.Rules[0].Action != origAction || again.Default != origDefault {
		t.Fatal("Program() handed out live state")
	}
	if &again.Rules[0] == &view.Rules[0] {
		t.Fatal("Program() returned shared backing array")
	}
}

func TestScanPathKnob(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	prog := randDisjointProgram(rng, 8)

	sw := NewSwitch(DefaultResources())
	sw.setScanOnly(true)
	if err := sw.Load(prog); err != nil {
		t.Fatal(err)
	}
	if sw.compiled() {
		t.Fatal("setScanOnly(true) must keep a load on the scan path")
	}
	sw.setScanOnly(false)
	if !sw.compiled() {
		t.Fatal("SetScanOnly(false) did not recompile")
	}
	sw.setScanOnly(true)
	if sw.compiled() {
		t.Fatal("SetScanOnly(true) did not drop the DAG")
	}
}

func TestDAGNodeBudgetFallback(t *testing.T) {
	old := maxDAGNodes
	maxDAGNodes = 2
	defer func() { maxDAGNodes = old }()

	rng := rand.New(rand.NewSource(409))
	prog := randDisjointProgram(rng, 16)
	sw := NewSwitch(DefaultResources())
	if err := sw.Load(prog); err != nil {
		t.Fatal(err)
	}
	if sw.compiled() {
		t.Fatal("budget of 2 nodes should force scan fallback")
	}
	// The fallback still answers correctly.
	for i := 0; i < 200; i++ {
		fv := randVector(rng)
		got := sw.state.Load().prog.scan(&fv)
		if want := scanVerdict(prog, &fv); got != want {
			t.Fatalf("fallback verdict %+v != %+v", got, want)
		}
	}
}

// --- concurrency ----------------------------------------------------------

// TestConcurrentInstallDuringBatch hammers the copy-on-write writers while
// batches and classify/commit cycles run; correctness here is "the race
// detector stays silent and counters stay coherent".
func TestConcurrentInstallDuringBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(410))
	pool := testAddrPool()
	sw := NewSwitch(DefaultResources())
	if err := sw.Load(randDisjointProgram(rng, 12)); err != nil {
		t.Fatal(err)
	}
	sums := make([]packet.Summary, 256)
	for i := range sums {
		sums[i] = randTestSummary(rng, pool)
	}
	ptrs := make([]*packet.Summary, len(sums))
	for i := range sums {
		ptrs[i] = &sums[i]
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // filter churn
		defer wg.Done()
		r := rand.New(rand.NewSource(411))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := randFilterKey(r, pool)
			if i%3 == 0 {
				sw.removeFilter(k)
			} else {
				_ = sw.InstallFilter(k, ActionDrop)
			}
		}
	}()
	go func() { // program reloads + removes
		defer wg.Done()
		r := rand.New(rand.NewSource(412))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := randFilterKey(r, pool)
			if i%4 == 0 {
				_ = sw.Load(randDisjointProgram(r, 8))
			} else {
				sw.removeFilter(k)
			}
		}
	}()

	out := make([]Verdict, len(sums))
	var committed uint64
	for iter := 0; iter < 60; iter++ {
		_ = sw.ProcessBatchAt(nil, sums, out[:0])
		committed += uint64(len(sums))
		gen := sw.ClassifyBatch(ptrs, out)
		// A mid-batch publish: commit the verdicts consumed so far and
		// fall back for the rest, like the control loop.
		done := len(ptrs)
		for i := range ptrs {
			if sw.StateGen() != gen {
				done = i
				break
			}
		}
		sw.CommitBatch(out[:done])
		for i := done; i < len(ptrs); i++ {
			sw.ProcessAt(0, ptrs[i])
		}
		committed += uint64(len(ptrs))
	}
	close(stop)
	wg.Wait()

	st := sw.Stats()
	if st.Processed != committed {
		t.Fatalf("processed %d != committed %d", st.Processed, committed)
	}
	if st.Permitted+st.Dropped+st.Alerted+st.Punted != st.Processed {
		t.Fatalf("action counters do not sum under concurrency: %+v", st)
	}
}

// TestConcurrentEnsembleInstallDuringBatch churns ensemble loads/unloads
// and filter installs underneath running batches and classify/commit
// cycles; correctness is "the race detector stays silent and counters
// stay coherent" — the RCU publish contract extended to the ensemble
// stage.
func TestConcurrentEnsembleInstallDuringBatch(t *testing.T) {
	forest, tree, _, _ := trainPacketForest(t)
	epFull, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{DropClasses: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	epSmall, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{
		DropClasses: []int{1}, Budget: ResourceBudget{Trees: 2}, Fallback: tree,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(420))
	pool := testAddrPool()
	sw := NewSwitch(DefaultResources())
	if err := sw.Load(randDisjointProgram(rng, 8)); err != nil {
		t.Fatal(err)
	}
	sums := make([]packet.Summary, 256)
	for i := range sums {
		sums[i] = randTestSummary(rng, pool)
	}
	ptrs := make([]*packet.Summary, len(sums))
	for i := range sums {
		ptrs[i] = &sums[i]
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // ensemble churn: full <-> degraded <-> none, plus knob flips
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				_ = sw.LoadEnsemble(epFull)
			case 1:
				_ = sw.LoadEnsemble(epSmall)
			case 2:
				sw.unloadEnsemble()
			default:
				sw.setScanOnly(i%8 == 3)
			}
			if u, ok := sw.EnsembleInfo(); ok && u.Trees == 0 {
				t.Error("EnsembleInfo saw an empty installed ensemble")
				return
			}
		}
	}()
	go func() { // filter churn
		defer wg.Done()
		r := rand.New(rand.NewSource(421))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := randFilterKey(r, pool)
			if i%3 == 0 {
				sw.removeFilter(k)
			} else {
				_ = sw.InstallFilter(k, ActionDrop)
			}
		}
	}()

	out := make([]Verdict, len(sums))
	var committed uint64
	for iter := 0; iter < 50; iter++ {
		_ = sw.ProcessBatchAt(nil, sums, out[:0])
		committed += uint64(len(sums))
		gen := sw.ClassifyBatch(ptrs, out)
		// A mid-batch publish: commit the verdicts consumed so far and
		// fall back for the rest, like the control loop.
		done := len(ptrs)
		for i := range ptrs {
			if sw.StateGen() != gen {
				done = i
				break
			}
		}
		sw.CommitBatch(out[:done])
		for i := done; i < len(ptrs); i++ {
			sw.ProcessAt(0, ptrs[i])
		}
		committed += uint64(len(ptrs))
	}
	close(stop)
	wg.Wait()

	st := sw.Stats()
	if st.Processed != committed {
		t.Fatalf("processed %d != committed %d", st.Processed, committed)
	}
	if st.Permitted+st.Dropped+st.Alerted+st.Punted != st.Processed {
		t.Fatalf("action counters do not sum under concurrency: %+v", st)
	}
}

// --- benchmarks -----------------------------------------------------------

// synthProgram emits nRules disjoint attack-signature rules shaped like
// the sibling leaves of one distilled subtree: shared broad guard conds
// (the path through the upper tree, repeated verbatim in every leaf's
// conjunction), a DNS-response trigger, and a narrow per-rule TTL band.
// Benign-heavy traffic matches no rule, so the scan path re-evaluates
// every guard of all nRules rules per packet; the DAG checks each guard
// region once and binary-searches the band.
func synthProgram(nRules int) *Program {
	p := &Program{Name: "synth", Default: ActionPermit}
	span := 256 / nRules
	for i := 0; i < nRules; i++ {
		act := ActionDrop
		if i%3 == 0 {
			act = ActionAlert
		}
		p.Rules = append(p.Rules, Rule{
			Conds: []RangeCond{
				{Field: fieldWireLen, Lo: 0, Hi: 16383},
				{Field: fieldDstPort, Lo: 0, Hi: 61439},
				{Field: fieldSrcPort, Lo: 0, Hi: 61439},
				{Field: fieldSynNoAck, Lo: 0, Hi: 0},
				{Field: fieldDNSResp, Lo: 1, Hi: 1},
				{Field: fieldTTL, Lo: uint32(i * span), Hi: uint32((i+1)*span - 1)},
			},
			Action: act, Class: 1, Confidence: 0.95,
		})
	}
	return p
}

func installBenchFilters(b *testing.B, sw *Switch, pool []netip.Addr) {
	b.Helper()
	for _, k := range []FilterKey{
		{DstIP: pool[0], Proto: packet.IPProtocolUDP},
		{DstIP: pool[1], Proto: packet.IPProtocolUDP},
		{DstIP: pool[2]},
		{SrcIP: pool[3]},
	} {
		if err := sw.InstallFilter(k, ActionDrop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwitchProcessPaths compares the linear-scan reference against
// the compiled DAG across program sizes, with and without an installed
// filter table in front.
func BenchmarkSwitchProcessPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pool := testAddrPool()
	sums := make([]packet.Summary, 1024)
	for i := range sums {
		sums[i] = randTestSummary(rng, pool)
	}
	for _, rules := range []int{4, 16, 64} {
		prog := synthProgram(rules)
		for _, mode := range []string{"scan", "dag"} {
			for _, withFilters := range []bool{false, true} {
				name := fmt.Sprintf("%s/rules=%d/filters=%v", mode, rules, withFilters)
				b.Run(name, func(b *testing.B) {
					sw := NewSwitch(DefaultResources())
					sw.setScanOnly(mode == "scan")
					if err := sw.Load(prog); err != nil {
						b.Fatal(err)
					}
					if (mode == "dag") != sw.compiled() {
						b.Fatal("wrong rule path")
					}
					if withFilters {
						installBenchFilters(b, sw, pool)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sw.ProcessAt(0, &sums[i&1023])
					}
				})
			}
		}
	}
}

// episodeSummaries parses a held-out campus + DNS-amp episode (the traffic
// the forest was trained for, other seeds) into whole 256-packet batches.
func episodeSummaries(b *testing.B, batch, batches int) []packet.Summary {
	b.Helper()
	plan := traffic.DefaultPlan(40)
	g := traffic.NewMerge(
		traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: 91}),
		traffic.NewAttack(traffic.AttackConfig{
			Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(1),
			Start: 500 * time.Millisecond, Duration: 3 * time.Second, Rate: 800, Seed: 92,
		}))
	fp := packet.NewFlowParser()
	sums := make([]packet.Summary, 0, batch*batches)
	var f traffic.Frame
	for len(sums) < cap(sums) && g.Next(&f) {
		var s packet.Summary
		if fp.Parse(f.Data, &s) == nil {
			sums = append(sums, s)
		}
	}
	if len(sums) < cap(sums) {
		b.Fatalf("episode too short: %d packets", len(sums))
	}
	return sums
}

// distinctSummaries draws whole batches in each of which no two packets
// rank alike against every cut ep's nodes test — no two share a code word,
// so a per-batch memo can never hit: the ensemble stage's worst case. The
// ranks are counted here from the nodes, not taken from the program's own
// range stage, so the input is the same on a build without one.
func distinctSummaries(b testing.TB, ep *EnsembleProgram, rng *rand.Rand, pool []netip.Addr, batch, batches int) []packet.Summary {
	b.Helper()
	sums := make([]packet.Summary, 0, batch*batches)
	for len(sums) < cap(sums) {
		seen := map[[numFields]uint16]bool{}
		for tries := 0; len(seen) < batch; tries++ {
			if tries > 1<<20 {
				b.Fatalf("only %d distinct code words reachable", len(seen))
			}
			s := randTestSummary(rng, pool)
			var fv fieldVector
			fv.fromSummary(&s)
			var ranks [numFields]uint16
			for i := range ep.nodes {
				if n := &ep.nodes[i]; n.cut < fv.vals[n.field] {
					ranks[n.field]++
				}
			}
			if !seen[ranks] {
				seen[ranks] = true
				sums = append(sums, s)
			}
		}
	}
	return sums
}

// BenchmarkEnsembleInference compares per-packet inference cost across the
// deployment frontier on the same trained forest: the whole ensemble
// compiled into the data plane (roomy and tight budgets), the extracted
// single tree as a compiled rule DAG, and the control plane's
// ml.PredictBatch. ns/op is per 256-packet batch; divide by 256 for
// per-packet cost. The ensemble runs on three inputs, because what the
// per-batch memo saves depends on how often headers repeat: uniformly
// random summaries (adversarially diverse), a generated campus + DNS-amp
// episode (repetitive, like real traffic), and a batch whose packets all
// carry distinct code words (no hit possible — the memo's pure overhead).
func BenchmarkEnsembleInference(b *testing.B) {
	forest, tree, _, _ := trainPacketForest(b)
	rng := rand.New(rand.NewSource(9))
	pool := testAddrPool()
	const batch = 256
	sums := make([]packet.Summary, batch)
	X := make([][]float64, batch)
	for i := range sums {
		sums[i] = randTestSummary(rng, pool)
		var fv fieldVector
		fv.fromSummary(&sums[i])
		x := make([]float64, len(features.PacketSchema))
		for j := range features.PacketSchema {
			f, _ := fieldByName(features.PacketSchema[j])
			x[j] = float64(fv.get(f))
		}
		X[i] = x
	}

	// benchEnsemble feeds in's 256-packet batches round robin; in nil means
	// the all-distinct batches, which depend on the compiled program. The
	// episode and the distinct input are 16 batches long so the branch
	// predictor cannot learn the walk of one batch by heart.
	benchEnsemble := func(b *testing.B, budget ResourceBudget, in []packet.Summary) {
		ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{
			DropClasses: []int{1}, Budget: budget, Fallback: tree,
		})
		if err != nil {
			b.Fatal(err)
		}
		u := ep.Usage()
		b.Logf("mode=%v trees=%d nodes=%d entries=%d stages=%d", u.Mode, u.Trees, u.Nodes, u.TableEntries, u.Stages)
		if in == nil {
			in = distinctSummaries(b, ep, rand.New(rand.NewSource(10)), pool, batch, 16)
		}
		sw := NewSwitch(DefaultResources())
		if err := sw.LoadEnsemble(ep); err != nil {
			b.Fatal(err)
		}
		out := make([]Verdict, 0, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := i % (len(in) / batch) * batch
			out = sw.ProcessBatchAt(nil, in[lo:lo+batch], out[:0])
		}
	}
	episode := episodeSummaries(b, batch, 16)
	b.Run("ensemble-dag/budget=roomy", func(b *testing.B) { benchEnsemble(b, ResourceBudget{}, sums) })
	b.Run("ensemble-dag/budget=tight", func(b *testing.B) { benchEnsemble(b, ResourceBudget{Nodes: 40}, sums) })
	b.Run("ensemble-dag/episode/budget=roomy", func(b *testing.B) { benchEnsemble(b, ResourceBudget{}, episode) })
	b.Run("ensemble-dag/episode/budget=tight", func(b *testing.B) { benchEnsemble(b, ResourceBudget{Nodes: 40}, episode) })
	b.Run("ensemble-dag/distinct/budget=roomy", func(b *testing.B) { benchEnsemble(b, ResourceBudget{}, nil) })

	b.Run("extracted-tree-dag", func(b *testing.B) {
		prog, err := Compile(tree, features.PacketSchema, CompileConfig{DropClasses: []int{1}})
		if err != nil {
			b.Fatal(err)
		}
		sw := NewSwitch(DefaultResources())
		if err := sw.Load(prog); err != nil {
			b.Fatal(err)
		}
		out := make([]Verdict, 0, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = sw.ProcessBatchAt(nil, sums, out[:0])
		}
	})

	b.Run("controlplane-predictbatch", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = forest.PredictBatch(X, 1)
		}
	})
}

// BenchmarkSwitchProcessBatch measures the batched entry point; ns/op is
// per 256-packet batch.
func BenchmarkSwitchProcessBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pool := testAddrPool()
	sums := make([]packet.Summary, 256)
	for i := range sums {
		sums[i] = randTestSummary(rng, pool)
	}
	for _, rules := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			sw := NewSwitch(DefaultResources())
			if err := sw.Load(synthProgram(rules)); err != nil {
				b.Fatal(err)
			}
			out := make([]Verdict, 0, len(sums))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = sw.ProcessBatchAt(nil, sums, out[:0])
			}
		})
	}
}
