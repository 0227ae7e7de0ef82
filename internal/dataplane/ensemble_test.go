package dataplane

import (
	"math/rand"
	"testing"

	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/packet"
)

// --- generators -----------------------------------------------------------

// randPacketDataset draws a random labeled dataset over the matchable
// packet schema. Values are small integers so fitted trees carry many
// overlapping thresholds on the same fields — the shape that stresses
// per-tree dedup and integerization.
func randPacketDataset(rng *rand.Rand, rows, classes int) *features.Dataset {
	ds := &features.Dataset{Schema: features.PacketSchema}
	for i := 0; i < rows; i++ {
		x := make([]float64, len(features.PacketSchema))
		for j := range x {
			f, _ := fieldByName(features.PacketSchema[j])
			span := int64(f.maxValue()) + 1
			if span > 9 {
				span = 9 // overlap-heavy: many duplicate values per column
			}
			x[j] = float64(rng.Int63n(span))
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, rng.Intn(classes))
	}
	return ds
}

// randForest fits a small randomized forest on a random dataset.
func randForest(t testing.TB, rng *rand.Rand) *ml.Forest {
	t.Helper()
	classes := 2 + rng.Intn(3)
	ds := randPacketDataset(rng, 40+rng.Intn(40), classes)
	f, err := ml.FitForest(ds, classes, ml.ForestConfig{
		Trees: 1 + rng.Intn(8), MaxDepth: 1 + rng.Intn(6), Seed: rng.Int63(), Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fvToX maps a field vector onto the model's feature space — the exact
// conversion the equivalence contract is stated over.
func fvToX(fv *fieldVector, x []float64) {
	for j := range features.PacketSchema {
		f, _ := fieldByName(features.PacketSchema[j])
		x[j] = float64(fv.get(f))
	}
}

// ensRandVector mixes full-domain vectors with small-valued ones that sit
// right on the fitted thresholds.
func ensRandVector(rng *rand.Rand) fieldVector {
	if rng.Intn(3) == 0 {
		return randVector(rng)
	}
	var fv fieldVector
	for f := Field(0); f < numFields; f++ {
		fv.set(f, uint32(rng.Intn(10)))
	}
	return fv
}

// --- equivalence properties -----------------------------------------------

// TestForestEnsembleEquivalence pins the compiled ensemble's verdicts —
// class AND confidence — byte-identical to ml.Forest.Predict/Proba, and
// the integer fast path identical to the float reference walk, across
// randomized forests with overlapping thresholds.
func TestForestEnsembleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	x := make([]float64, len(features.PacketSchema))
	for trial := 0; trial < 40; trial++ {
		forest := randForest(t, rng)
		ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{
			Name: "rand-forest", DropClasses: []int{1},
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if u := ep.Usage(); u.Mode != ensembleExact {
			t.Fatalf("trial %d: mode %v, want exact (usage %+v)", trial, u.Mode, u)
		}
		for i := 0; i < 300; i++ {
			fv := ensRandVector(rng)
			got := ep.evalCompiled(&fv)
			if ref := ep.evalRef(&fv); got != ref {
				t.Fatalf("trial %d: compiled %+v != ref %+v (fv %v)", trial, got, ref, fv.vals)
			}
			fvToX(&fv, x)
			wantClass := forest.Predict(x)
			wantConf := forest.Proba(x)[wantClass]
			if got.Class != wantClass || got.Confidence != wantConf {
				t.Fatalf("trial %d: verdict (%d, %v) != forest (%d, %v) fv %v",
					trial, got.Class, got.Confidence, wantClass, wantConf, fv.vals)
			}
		}
	}
}

// TestEnsembleBatchEquivalence runs the trained DNS-amp forest through the
// switch at batch sizes 1 and 64 and pins every verdict to the
// control-plane forest on the same parsed field view.
func TestEnsembleBatchEquivalence(t *testing.T) {
	forest, _, _, _ := trainPacketForest(t)
	ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{
		Name: "dns-amp-ens", DropClasses: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if u := ep.Usage(); u.Mode != ensembleExact {
		t.Fatalf("trained forest should fit the default budget: %+v", u)
	}
	sw := NewSwitch(DefaultResources())
	if err := sw.LoadEnsemble(ep); err != nil {
		t.Fatal(err)
	}
	if !sw.ensembleLoaded() {
		t.Fatal("ensemble not loaded")
	}
	rng := rand.New(rand.NewSource(503))
	pool := testAddrPool()
	x := make([]float64, len(features.PacketSchema))
	for _, batch := range []int{1, 64} {
		sums := make([]packet.Summary, batch)
		for i := range sums {
			sums[i] = randTestSummary(rng, pool)
		}
		out := sw.ProcessBatchAt(nil, sums, nil)
		for i := range sums {
			var fv fieldVector
			fv.fromSummary(&sums[i])
			fvToX(&fv, x)
			wantClass := forest.Predict(x)
			wantConf := forest.Proba(x)[wantClass]
			if out[i].Class != wantClass || out[i].Confidence != wantConf {
				t.Fatalf("batch=%d pkt %d: verdict (%d, %v) != forest (%d, %v)",
					batch, i, out[i].Class, out[i].Confidence, wantClass, wantConf)
			}
			// Batched and single-packet paths agree.
			if single := sw.ProcessAt(0, &sums[i]); single != out[i] {
				t.Fatalf("batch=%d pkt %d: batch %+v != single %+v", batch, i, out[i], single)
			}
		}
	}
	// Every entry point, and the float reference twin, on batches longer
	// than the memo has slots — full-range packets, small-valued ones and a
	// run of repeats.
	tw := newBatchTwins()
	for _, batch := range []int{1, 64, 700} {
		tw.check(t, "dns-amp-ens", ep, memoSummaries(rng, batch))
	}
}

// --- budgets and degradation ----------------------------------------------

// TestEnsembleBudgetDegradation walks the ladder: a roomy budget compiles
// exactly, a tight node budget prunes every tree, a tiny tree budget
// falls back to the extracted single tree — all without error, all within
// the declared budget, and all still byte-identical to their own float
// reference walk.
func TestEnsembleBudgetDegradation(t *testing.T) {
	forest, tree, _, _ := trainPacketForest(t)
	rng := rand.New(rand.NewSource(504))
	x := make([]float64, len(features.PacketSchema))

	checkRef := func(t *testing.T, ep *EnsembleProgram) {
		t.Helper()
		for i := 0; i < 500; i++ {
			fv := ensRandVector(rng)
			if got, ref := ep.evalCompiled(&fv), ep.evalRef(&fv); got != ref {
				t.Fatalf("compiled %+v != ref %+v (fv %v)", got, ref, fv.vals)
			}
		}
	}

	t.Run("exact", func(t *testing.T) {
		ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{DropClasses: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		u := ep.Usage()
		if u.Mode != ensembleExact || u.PrunedDepth != 0 || u.Trees != forest.NumTrees() {
			t.Fatalf("usage %+v", u)
		}
		if !u.Budget.admits(u) {
			t.Fatalf("exact compile exceeds its own budget: %+v", u)
		}
		checkRef(t, ep)
	})

	t.Run("pruned", func(t *testing.T) {
		budget := ResourceBudget{Nodes: 40}
		ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{
			DropClasses: []int{1}, Budget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		u := ep.Usage()
		if u.Mode != ensemblePruned {
			t.Fatalf("mode %v, want pruned (usage %+v)", u.Mode, u)
		}
		if u.Nodes > budget.Nodes {
			t.Fatalf("pruned compile still over budget: %+v", u)
		}
		if u.Trees != forest.NumTrees() || u.PrunedDepth < 1 {
			t.Fatalf("usage %+v", u)
		}
		sum := 0
		for _, n := range u.TreeNodes {
			sum += n
		}
		if sum != u.Nodes {
			t.Fatalf("per-tree nodes sum %d != total %d", sum, u.Nodes)
		}
		checkRef(t, ep)
	})

	t.Run("fallback", func(t *testing.T) {
		ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{
			DropClasses: []int{1},
			Budget:      ResourceBudget{Trees: 2},
			Fallback:    tree,
		})
		if err != nil {
			t.Fatal(err)
		}
		u := ep.Usage()
		if u.Mode != ensembleFallback || u.Trees != 1 {
			t.Fatalf("usage %+v", u)
		}
		checkRef(t, ep)
		// A one-tree mean vote is exactly the fallback tree's argmax.
		for i := 0; i < 500; i++ {
			fv := ensRandVector(rng)
			fvToX(&fv, x)
			if got, want := ep.evalCompiled(&fv).Class, tree.Predict(x); got != want {
				t.Fatalf("fallback class %d != tree %d (fv %v)", got, want, fv.vals)
			}
		}
	})

	t.Run("impossible", func(t *testing.T) {
		_, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{
			Budget: ResourceBudget{TableEntries: 1}, // can't hold even 2 leaves
		})
		if err == nil {
			t.Fatal("budget of 1 table entry must be rejected")
		}
	})
}

// TestEnsembleVerdictActions pins the class→action ladder: class 0
// permits, drop classes drop, others alert, low confidence punts.
func TestEnsembleVerdictActions(t *testing.T) {
	forest, _, _, _ := trainPacketForest(t)
	rng := rand.New(rand.NewSource(505))
	x := make([]float64, len(features.PacketSchema))

	for _, tc := range []struct {
		name   string
		cfg    EnsembleConfig
		expect func(class int, conf float64) ActionKind
	}{
		{"drop", EnsembleConfig{DropClasses: []int{1}}, func(class int, conf float64) ActionKind {
			if class == 0 {
				return ActionPermit
			}
			return ActionDrop
		}},
		{"alert", EnsembleConfig{}, func(class int, conf float64) ActionKind {
			if class == 0 {
				return ActionPermit
			}
			return ActionAlert
		}},
		{"punt", EnsembleConfig{DropClasses: []int{1}, MinConfidence: 1.1}, func(class int, conf float64) ActionKind {
			if class == 0 {
				return ActionPermit
			}
			return ActionPunt // nothing reaches confidence 1.1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep, err := CompileForestEnsemble(forest, features.PacketSchema, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sawAttack := false
			for i := 0; i < 2000; i++ {
				fv := ensRandVector(rng)
				v := ep.evalCompiled(&fv)
				fvToX(&fv, x)
				if want := tc.expect(forest.Predict(x), v.Confidence); v.Action != want {
					t.Fatalf("class %d conf %v: action %v, want %v", v.Class, v.Confidence, v.Action, want)
				}
				if v.Class != 0 {
					sawAttack = true
				}
			}
			if !sawAttack {
				t.Fatal("no attack verdicts drawn; test vacuous")
			}
		})
	}
}

// --- switch integration ----------------------------------------------------

// TestEnsembleInfoCopy verifies EnsembleInfo hands out deep copies, never
// live internals, and reports absence correctly.
func TestEnsembleInfoCopy(t *testing.T) {
	forest, _, _, _ := trainPacketForest(t)
	ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{DropClasses: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(DefaultResources())
	if _, ok := sw.EnsembleInfo(); ok {
		t.Fatal("EnsembleInfo reported an ensemble before LoadEnsemble")
	}
	if err := sw.LoadEnsemble(ep); err != nil {
		t.Fatal(err)
	}
	u, ok := sw.EnsembleInfo()
	if !ok {
		t.Fatal("EnsembleInfo missing after LoadEnsemble")
	}
	if u.Trees != forest.NumTrees() || len(u.TreeNodes) != forest.NumTrees() {
		t.Fatalf("usage %+v", u)
	}
	// Corrupt the copy; the switch's view must be unaffected.
	origFirst := u.TreeNodes[0]
	u.TreeNodes[0] = -1
	u.Nodes = -1
	again, _ := sw.EnsembleInfo()
	if again.TreeNodes[0] != origFirst || again.Nodes < 0 {
		t.Fatal("EnsembleInfo handed out live state")
	}
	// Same contract on the program itself.
	pu := ep.Usage()
	pu.TreeNodes[0] = -7
	if ep.Usage().TreeNodes[0] == -7 {
		t.Fatal("EnsembleProgram.Usage handed out live state")
	}
	if !sw.unloadEnsemble() {
		t.Fatal("UnloadEnsemble found nothing")
	}
	if _, ok := sw.EnsembleInfo(); ok {
		t.Fatal("EnsembleInfo reported an ensemble after unload")
	}
	if sw.unloadEnsemble() {
		t.Fatal("second UnloadEnsemble reported success")
	}
}

// TestEnsembleScanKnob drives the ensemble path through setScanOnly,
// demanding identical verdicts from the reference walk.
func TestEnsembleScanKnob(t *testing.T) {
	forest, _, _, _ := trainPacketForest(t)
	ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{DropClasses: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	swScan := NewSwitch(DefaultResources())
	swScan.setScanOnly(true)
	if err := swScan.LoadEnsemble(ep); err != nil {
		t.Fatal(err)
	}
	if !swScan.state.Load().ens.scan {
		t.Fatal("setScanOnly(true) did not force the ensemble reference walk")
	}
	swFast := NewSwitch(DefaultResources())
	swFast.setScanOnly(false)
	if err := swFast.LoadEnsemble(ep); err != nil {
		t.Fatal(err)
	}
	if swFast.state.Load().ens.scan {
		t.Fatal("fast twin is on the reference walk")
	}
	rng := rand.New(rand.NewSource(506))
	pool := testAddrPool()
	for i := 0; i < 2000; i++ {
		s := randTestSummary(rng, pool)
		if vs, vf := swScan.ProcessAt(0, &s), swFast.ProcessAt(0, &s); vs != vf {
			t.Fatalf("pkt %d: scan %+v != fast %+v", i, vs, vf)
		}
	}
	// Flipping the knob at runtime swaps the evaluator in place.
	swFast.setScanOnly(true)
	if !swFast.state.Load().ens.scan {
		t.Fatal("SetScanOnly(true) did not switch the ensemble to the reference walk")
	}
	swFast.setScanOnly(false)
	if swFast.state.Load().ens.scan {
		t.Fatal("SetScanOnly(false) did not restore the compiled ensemble path")
	}
}

// TestEnsembleHotPathAllocs pins the ensemble fast path at zero
// allocations per packet, single and batched.
func TestEnsembleHotPathAllocs(t *testing.T) {
	forest, _, _, _ := trainPacketForest(t)
	ep, err := CompileForestEnsemble(forest, features.PacketSchema, EnsembleConfig{DropClasses: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(DefaultResources())
	if err := sw.LoadEnsemble(ep); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(507))
	pool := testAddrPool()
	s := randTestSummary(rng, pool)
	if n := testing.AllocsPerRun(200, func() { sw.ProcessAt(0, &s) }); n != 0 {
		t.Fatalf("ProcessAt allocates %v/op on the ensemble path", n)
	}
	sums := make([]packet.Summary, 64)
	for i := range sums {
		sums[i] = randTestSummary(rng, pool)
	}
	out := make([]Verdict, 0, len(sums))
	if n := testing.AllocsPerRun(50, func() { out = sw.ProcessBatchAt(nil, sums, out[:0]) }); n != 0 {
		t.Fatalf("ProcessBatchAt allocates %v/op on the ensemble path", n)
	}
	ptrs := make([]*packet.Summary, len(sums))
	for i := range sums {
		ptrs[i] = &sums[i]
	}
	out = out[:len(sums)]
	if n := testing.AllocsPerRun(50, func() { sw.ClassifyBatch(ptrs, out) }); n != 0 {
		t.Fatalf("ClassifyBatch allocates %v/op on the ensemble path", n)
	}
}

// --- fuzzing ---------------------------------------------------------------

// FuzzEnsembleCompile drives random tree shapes, thresholds, and budgets
// through the ensemble compiler: it must never panic, never hand back an
// over-budget program, keep its per-tree accounting consistent, and stay
// byte-identical to its own reference walk (and to the source model when
// the compile is exact) — on the walk, through the per-batch memo, and
// through every batch entry point of a switch.
// fuzzInput is one input of FuzzEnsembleCompile: a forest shape and a
// resource budget.
type fuzzInput struct {
	seed                                                   int64
	nTrees, depth, rows, bNodes, bEntries, bStages, bTrees uint8
}

// fuzzSeeds is FuzzEnsembleCompile's in-code seed corpus; the rest of it is
// under testdata/fuzz/FuzzEnsembleCompile.
var fuzzSeeds = []fuzzInput{
	{1, 3, 3, 40, 0, 0, 0, 0},
	{7, 5, 4, 60, 200, 32, 0, 0},
	{42, 8, 6, 70, 50, 0, 4, 2},
	{3, 4, 2, 50, 0, 8, 3, 0},
	{99, 2, 1, 20, 1, 1, 1, 1},
}

// compile fits the input's random forest and compiles it under the input's
// budget, drawing from rng. A fit or a compile error (an impossible
// budget) is an input to skip, not a failure.
func (in fuzzInput) compile(rng *rand.Rand) (*ml.Forest, *EnsembleProgram, ResourceBudget, error) {
	classes := 2 + int(in.nTrees)%3
	ds := randPacketDataset(rng, 20+int(in.rows)%60, classes)
	budget := ResourceBudget{
		Nodes: int(in.bNodes), TableEntries: int(in.bEntries),
		Stages: int(in.bStages), Trees: int(in.bTrees),
	}
	fr, err := ml.FitForest(ds, classes, ml.ForestConfig{
		Trees: 1 + int(in.nTrees)%8, MaxDepth: 1 + int(in.depth)%6, Seed: rng.Int63(), Workers: 1,
	})
	if err != nil {
		return nil, nil, budget, err
	}
	ep, err := CompileForestEnsemble(fr, features.PacketSchema, EnsembleConfig{Name: "fuzz", DropClasses: []int{1}, Budget: budget})
	return fr, ep, budget, err
}

func FuzzEnsembleCompile(f *testing.F) {
	for _, in := range fuzzSeeds {
		f.Add(in.seed, in.nTrees, in.depth, in.rows, in.bNodes, in.bEntries, in.bStages, in.bTrees)
	}
	tw := newBatchTwins() // one pair per worker process: switches pin their counter blocks
	f.Fuzz(func(t *testing.T, seed int64, nTrees, depth, rows, bNodes, bEntries, bStages, bTrees uint8) {
		rng := rand.New(rand.NewSource(seed))
		fr, ep, budget, err := fuzzInput{seed, nTrees, depth, rows, bNodes, bEntries, bStages, bTrees}.compile(rng)
		if err != nil {
			return // unfittable, or rejected (budget impossible): fine, as long as no panic
		}
		u := ep.Usage()
		norm := budget
		if budget == (ResourceBudget{}) {
			norm = defaultEnsembleBudget()
		}
		norm = norm.normalized()
		if !norm.admits(u) {
			t.Fatalf("compiled program exceeds budget: usage %+v budget %+v", u, norm)
		}
		sum := 0
		for _, n := range u.TreeNodes {
			sum += n
		}
		if sum != u.Nodes || len(u.TreeNodes) != u.Trees {
			t.Fatalf("per-tree accounting inconsistent: %+v", u)
		}
		if (u.Mode == ensembleExact) != (u.PrunedDepth == 0 && u.Mode != ensembleFallback) {
			t.Fatalf("mode/depth inconsistent: %+v", u)
		}
		x := make([]float64, len(features.PacketSchema))
		es := &ensembleState{ep: ep}
		var memo *ensMemo
		if es.memoizes() {
			memo = new(ensMemo)
		}
		for i := 0; i < 60; i++ {
			fv := ensRandVector(rng)
			got := ep.evalCompiled(&fv)
			if ref := ep.evalRef(&fv); got != ref {
				t.Fatalf("compiled %+v != ref %+v (fv %v, usage %+v)", got, ref, fv.vals, u)
			}
			// Twice through one memo, as a batch entry point would: the
			// second lookup is a hit unless the program is too wide to code.
			for pass := 0; pass < 2; pass++ {
				if m := es.eval(&fv, memo); m != got {
					t.Fatalf("memo pass %d %+v != compiled %+v (fv %v)", pass, m, got, fv.vals)
				}
			}
			if u.Mode == ensembleExact {
				fvToX(&fv, x)
				if want := fr.Predict(x); got.Class != want {
					t.Fatalf("exact-mode class %d != model %d (fv %v)", got.Class, want, fv.vals)
				}
			}
		}
		if memo != nil && memo.hits < 60 {
			t.Fatalf("120 lookups of 60 vectors hit %d times", memo.hits)
		}
		tw.check(t, "fuzz", ep, memoSummaries(rng, 48))
	})
}
