package ml

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"campuslab/internal/features"
)

// randomCase draws a dataset built to stress the split search: boolean,
// constant and small-integer columns (heavy ties), signed zeros, adjacent
// floats whose midpoint rounds onto a neighbour, magnitudes whose sum
// overflows, ±Inf, and blocks of duplicated rows. The awkward columns follow
// the label, so that splits on them are chosen.
func randomCase(r *rand.Rand) (*features.Dataset, int) {
	n := 1 + r.Intn(160)
	dims := 1 + r.Intn(7)
	classes := 2 + r.Intn(4)
	d := &features.Dataset{Schema: make([]string, dims)}
	kinds := make([]int, dims)
	for f := range kinds {
		d.Schema[f] = fmt.Sprintf("f%d", f)
		kinds[f] = r.Intn(8)
	}
	for i := 0; i < n; i++ {
		if i > 0 && r.Intn(4) == 0 { // duplicate an earlier row, label redrawn
			d.X = append(d.X, append([]float64(nil), d.X[r.Intn(i)]...))
			d.Y = append(d.Y, r.Intn(classes))
			continue
		}
		y := r.Intn(classes)
		row := make([]float64, dims)
		for f, kind := range kinds {
			switch kind {
			case 0: // boolean, correlated with the label
				row[f] = float64((y + r.Intn(3)/2) % 2)
			case 1: // constant
				row[f] = 7
			case 2: // small integers
				row[f] = float64(r.Intn(5) + y)
			case 3: // continuous, separable-ish
				row[f] = float64(y) + r.NormFloat64()
			case 4: // signed zeros and a few neighbours
				row[f] = []float64{math.Copysign(0, -1), 0, 1, -1}[r.Intn(4)]
			case 5: // adjacent floats
				row[f] = math.Float64frombits(math.Float64bits(1.5) + uint64(y+r.Intn(2)))
			case 6: // sums that overflow
				row[f] = []float64{math.MaxFloat64, math.MaxFloat64 / 1.5, -math.MaxFloat64, 3}[(y+r.Intn(2))%4]
			case 7: // infinities order too
				row[f] = []float64{math.Inf(-1), float64(y), 2, math.Inf(1)}[(y+r.Intn(2))%4]
			}
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	return d, classes
}

func randomTreeConfig(r *rand.Rand, dims int) TreeConfig {
	return TreeConfig{
		MaxDepth:        r.Intn(8),
		MinSamplesSplit: r.Intn(12),
		MaxFeatures:     r.Intn(dims + 2),
		Seed:            r.Int63(),
	}
}

func mustMarshal(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFitTreeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 400; i++ {
		d, classes := randomCase(r)
		cfg := randomTreeConfig(r, d.Dims())
		if i%5 == 0 {
			classes = 0 // inferred from the labels
		}
		got, err := FitTree(d, classes, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := refFitTree(d, classes, cfg)
		if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
			t.Fatalf("case %d (n=%d dims=%d cfg=%+v): tree differs from reference: %d vs %d nodes",
				i, d.Len(), d.Dims(), cfg, got.NumNodes(), want.NumNodes())
		}
	}
}

func TestFitForestMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 60; i++ {
		d, classes := randomCase(r)
		cfg := ForestConfig{
			Trees:           1 + r.Intn(9),
			MaxDepth:        r.Intn(8),
			MinSamplesSplit: r.Intn(6),
			Seed:            r.Int63(),
		}
		want := mustMarshal(t, refFitForest(d, classes, cfg))
		for _, workers := range []int{1, 2, 4} {
			cfg.Workers = workers
			got, err := FitForest(d, classes, cfg)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			if !bytes.Equal(mustMarshal(t, got), want) {
				t.Fatalf("case %d workers=%d (n=%d dims=%d cfg=%+v): forest differs from reference",
					i, workers, d.Len(), d.Dims(), cfg)
			}
		}
	}
}

func TestFitBoostMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 60; i++ {
		d, classes := randomCase(r)
		cfg := BoostConfig{Rounds: 1 + r.Intn(12), WeakDepth: r.Intn(4), Seed: r.Int63()}
		got, err := FitBoost(d, classes, cfg)
		want := refFitBoost(d, classes, cfg)
		if want == nil {
			if err == nil {
				t.Fatalf("case %d: reference found no weak learner, FitBoost did", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.alphas, want.alphas) {
			t.Fatalf("case %d: alphas %v, reference %v", i, got.alphas, want.alphas)
		}
		for j, x := range d.X {
			if g, w := got.Proba(x), want.Proba(x); !reflect.DeepEqual(g, w) {
				t.Fatalf("case %d row %d: Proba %v, reference %v", i, j, g, w)
			}
		}
	}
}

func TestForestVoteMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 30; i++ {
		d, classes := randomCase(r)
		f, err := FitForest(d, classes, ForestConfig{Trees: 1 + r.Intn(20), Seed: r.Int63(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for j, x := range d.X {
			want := refForestProba(f, x)
			got := f.Proba(x)
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("case %d row %d: Proba %v, reference %v", i, j, got, want)
				}
			}
			if wantClass, _ := argmax(want); f.Predict(x) != wantClass {
				t.Fatalf("case %d row %d: Predict %d, reference %d", i, j, f.Predict(x), wantClass)
			}
		}
	}
}

func TestForestPredictDoesNotAllocate(t *testing.T) {
	d := blobs(200, 1.0, 3)
	f, err := FitForest(d, 2, ForestConfig{Trees: 20, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := d.X[0]
	if allocs := testing.AllocsPerRun(100, func() { f.Predict(x) }); allocs != 0 {
		t.Errorf("Forest.Predict allocates %v times per call", allocs)
	}
}

// TestForestDecisionMatchesFullVote holds Predict's early exit and
// PredictBatch's code-word memo, at 1 and 4 workers, to the argmax of the
// full vote. The rows sit on every split threshold and one ulp either
// side of it, put -0 and +0 against 0 thresholds, ±Inf and NaN in every
// column, and come shuffled with repeats; the forests are fitted ones of
// 2–5 classes, one with more thresholds on a feature than rank counts
// through, and hand-built ones whose full vote ties.
func TestForestDecisionMatchesFullVote(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 80; i++ {
		d, classes := randomCase(r)
		f, err := FitForest(d, classes, ForestConfig{Trees: 1 + r.Intn(40), MaxDepth: r.Intn(9), Seed: r.Int63(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkDecisions(t, fmt.Sprintf("case %d", i), f, probeRows(r, f, d.X))
	}

	zeros := signedZeroCase(r)
	f, err := FitForest(zeros, 3, ForestConfig{Trees: 25, Seed: 21, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	splitsAtZero := false
	for _, tr := range f.trees {
		for _, n := range tr.nodes {
			splitsAtZero = splitsAtZero || (n.feature >= 0 && n.threshold == 0)
		}
	}
	if !splitsAtZero {
		t.Fatal("signed-zero forest has no 0 threshold")
	}
	checkDecisions(t, "signed zeros", f, probeRows(r, f, zeros.X))
	// Fitting never splits at -0 (0 <= -0 would send +0 left with -0),
	// but a tree may carry one; -0 and +0 are one threshold.
	f = &Forest{classes: 2, trees: []*Tree{
		splitTree(math.Copysign(0, -1), []float64{3, 1}, []float64{1, 3}),
		splitTree(0, []float64{0, 2}, []float64{2, 0}),
		splitTree(math.SmallestNonzeroFloat64, []float64{1, 2}, []float64{2, 1}),
	}}
	checkDecisions(t, "-0 and +0 thresholds", f, probeRows(r, f, [][]float64{{-1}, {1}}))

	wide := blobs(600, 2, 22)
	f, err = FitForest(wide, 2, ForestConfig{Trees: 30, Seed: 23, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs, ok := f.cuts()
	if !ok || cs.bounds[1]-cs.bounds[0] <= linearRankCuts {
		t.Fatalf("wide forest: feature 0 has %d thresholds, want more than %d", cs.bounds[1]-cs.bounds[0], linearRankCuts)
	}
	checkDecisions(t, "wide", f, probeRows(r, f, wide.X))

	for i := 0; i < 400; i++ {
		f := tiedForest(r)
		checkDecisions(t, fmt.Sprintf("tied %d", i), f, [][]float64{{0}, {1}})
	}
}

// checkDecisions compares Predict and PredictBatch on every row of X with
// the argmax of refForestProba.
func checkDecisions(t *testing.T, name string, f *Forest, X [][]float64) {
	t.Helper()
	want := make([]int, len(X))
	for j, x := range X {
		want[j], _ = argmax(refForestProba(f, x))
		if got := f.Predict(x); got != want[j] {
			t.Fatalf("%s row %d %v: Predict %d, full vote %d (%v)", name, j, x, got, want[j], refForestProba(f, x))
		}
	}
	for _, workers := range []int{1, 4} {
		got := f.PredictBatch(X, workers)
		for j := range X {
			if got[j] != want[j] {
				t.Fatalf("%s workers=%d row %d %v: PredictBatch %d, full vote %d", name, workers, j, X[j], got[j], want[j])
			}
		}
	}
}

// probeRows is X plus, for every split threshold of f, rows that put its
// feature on the threshold and one ulp either side of it, and rows with
// -0, +0, ±Inf or NaN in one column — in shuffled order, a quarter of
// them twice.
func probeRows(r *rand.Rand, f *Forest, X [][]float64) [][]float64 {
	rows := append([][]float64(nil), X...)
	variant := func(feature int, v float64) {
		x := append([]float64(nil), X[r.Intn(len(X))]...)
		x[feature] = v
		rows = append(rows, x)
	}
	for _, tr := range f.trees {
		for _, n := range tr.nodes {
			if n.feature >= 0 {
				variant(n.feature, n.threshold)
				variant(n.feature, math.Nextafter(n.threshold, math.Inf(-1)))
				variant(n.feature, math.Nextafter(n.threshold, math.Inf(1)))
			}
		}
	}
	for feature := range X[0] {
		for _, v := range []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), math.NaN()} {
			variant(feature, v)
		}
	}
	for k := len(rows) / 4; k > 0; k-- {
		rows = append(rows, rows[r.Intn(len(rows))])
	}
	r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// signedZeroCase is a 3-class dataset whose forest splits at 0, the
// midpoint of -1 and 1.
func signedZeroCase(r *rand.Rand) *features.Dataset {
	d := &features.Dataset{Schema: []string{"pm1", "noise"}}
	for i := 0; i < 300; i++ {
		y := r.Intn(3)
		pm1 := []float64{-1, 1}[(y+r.Intn(4)/3)%2]
		d.X = append(d.X, []float64{pm1, float64(y) + r.NormFloat64()})
		d.Y = append(d.Y, y)
	}
	return d
}

// splitTree is a one-split tree over feature 0: x <= thr reaches a leaf
// with class histogram left, else one with right.
func splitTree(thr float64, left, right []float64) *Tree {
	sum := func(c []float64) float64 { return c[0] + c[1] }
	return &Tree{classes: 2, dims: 1, nodes: []treeNode{
		{feature: 0, threshold: thr, left: 1, right: 2, counts: []float64{0, 0}},
		{feature: -1, counts: left, total: sum(left)},
		{feature: -1, counts: right, total: sum(right)},
	}}
}

// tiedForest hand-builds a forest of single-leaf trees, 2–5 classes,
// whose exact vote ties class a with class b. Trees that give a and b the
// same share come first; then two trees that put a exactly one ahead of b
// (a's shares p/q and (3q-2p)/2q, b's the rest), so that with one tree
// left the lead is exactly what it can take back, and rounding may have
// made it look a little more or less; then that tree, all b's.
func tiedForest(r *rand.Rand) *Forest {
	classes := 2 + r.Intn(4)
	perm := r.Perm(classes)
	a, b := perm[0], perm[1]
	leaf := func(counts []float64) *Tree {
		total := 0.0
		for _, c := range counts {
			total += c
		}
		return &Tree{classes: classes, dims: 1, nodes: []treeNode{{feature: -1, counts: counts, total: total}}}
	}
	f := &Forest{classes: classes}
	for k := r.Intn(4); k > 0; k-- {
		counts := make([]float64, classes)
		for c := range counts {
			counts[c] = float64(r.Intn(5))
		}
		counts[b] = counts[a]
		f.trees = append(f.trees, leaf(counts))
	}
	q := 2 + r.Intn(30)
	p := (q+1)/2 + r.Intn(q/2+1)
	first, second := make([]float64, classes), make([]float64, classes)
	first[a], first[b] = float64(p), float64(q-p)
	second[a], second[b] = float64(3*q-2*p), float64(2*p-q)
	last := make([]float64, classes)
	last[b] = float64(1 + r.Intn(3))
	f.trees = append(f.trees, leaf(first), leaf(second), leaf(last))
	return f
}

func TestFitRejectsBadDataset(t *testing.T) {
	good := func() *features.Dataset {
		return &features.Dataset{
			Schema: []string{"a", "b"},
			X:      [][]float64{{0, 1}, {1, 0}, {2, 2}, {3, 1}},
			Y:      []int{0, 1, 0, 1},
		}
	}
	cases := []struct {
		name    string
		classes int
		mutate  func(d *features.Dataset)
		ok      bool
	}{
		{"clean", 2, func(*features.Dataset) {}, true},
		{"infinities order", 2, func(d *features.Dataset) { d.X[0][0] = math.Inf(-1); d.X[3][1] = math.Inf(1) }, true},
		{"negative label", 2, func(d *features.Dataset) { d.Y[2] = -1 }, false},
		{"negative label, classes inferred", 0, func(d *features.Dataset) { d.Y[2] = -1 }, false},
		{"label beyond classes", 2, func(d *features.Dataset) { d.Y[1] = 2 }, false},
		{"NaN feature", 2, func(d *features.Dataset) { d.X[1][1] = math.NaN() }, false},
		{"short row", 2, func(d *features.Dataset) { d.X[2] = d.X[2][:1] }, false},
		{"long row", 2, func(d *features.Dataset) { d.X[2] = append(d.X[2], 5) }, false},
		{"missing label", 2, func(d *features.Dataset) { d.Y = d.Y[:3] }, false},
	}
	fits := map[string]func(d *features.Dataset, classes int) error{
		"FitTree": func(d *features.Dataset, classes int) error {
			_, err := FitTree(d, classes, TreeConfig{})
			return err
		},
		"FitForest": func(d *features.Dataset, classes int) error {
			_, err := FitForest(d, classes, ForestConfig{Trees: 3, Workers: 1})
			return err
		},
		"FitBoost": func(d *features.Dataset, classes int) error {
			_, err := FitBoost(d, classes, BoostConfig{Rounds: 3})
			return err
		},
	}
	for _, tc := range cases {
		for name, fit := range fits {
			d := good()
			tc.mutate(d)
			err := fit(d, tc.classes)
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s, %s: %v", name, tc.name, err)
			case !tc.ok && !errors.Is(err, ErrBadDataset):
				t.Errorf("%s, %s: error %v, want ErrBadDataset", name, tc.name, err)
			}
		}
	}
}

func TestRuleForMatchesRules(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 40; i++ {
		d, classes := randomCase(r)
		tree, err := FitTree(d, classes, TreeConfig{MaxDepth: r.Intn(6)})
		if err != nil {
			t.Fatal(err)
		}
		rules := tree.Rules()
		for j, x := range d.X {
			var want Rule
			found := false
			for _, rule := range rules {
				if ruleCovers(rule, x) {
					want, found = rule, true
					break
				}
			}
			if !found {
				t.Fatalf("case %d row %d: no enumerated rule covers the row", i, j)
			}
			if got := tree.RuleFor(x); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d row %d: RuleFor %+v, enumerated %+v", i, j, got, want)
			}
		}
	}
}

func ruleCovers(r Rule, x []float64) bool {
	for _, c := range r.Conds {
		if c.LE != (x[c.Feature] <= c.Thr) {
			return false
		}
	}
	return true
}

// TestRadixSortOrders pins the presort itself: every column's row list
// holds each row once, ascending by value (-0 and +0 compare equal and may
// sit either way round), identical values in row order. The radix passes
// order by a key's top 32 bits only, so two columns hold shuffled values
// that share those bits and differ below them, which only the finishing
// step puts in order, and one column is constant.
func TestRadixSortOrders(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	special := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	// bits draws any non-NaN float64, so every 11-bit digit of the sort
	// key varies; n = 20000 puts thousands of keys through each pass.
	bits := func() float64 {
		for {
			if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) {
				return v
			}
		}
	}
	for _, n := range []int{1, 2, 17, 1000, 5000, 20000} {
		d := &features.Dataset{Schema: []string{"normal", "special", "small", "bits", "near1", "near2^60", "constant"}, Y: make([]int, n)}
		near := r.Perm(n)
		for i := 0; i < n; i++ {
			k := float64(near[i])
			d.X = append(d.X, []float64{r.NormFloat64() * 1e3, special[r.Intn(len(special))], float64(r.Intn(3)), bits(),
				1 + k*0x1p-40, 0x1p60 + k*0x1p8, -2.5})
		}
		ps := newPresort(d)
		for f := 0; f < ps.dims; f++ {
			col, ord := ps.col(f), ps.order[f*n:(f+1)*n]
			seen := make([]bool, n)
			for i, row := range ord {
				if seen[row] {
					t.Fatalf("n=%d feature %d: row %d listed twice", n, f, row)
				}
				seen[row] = true
				if i == 0 {
					continue
				}
				prev := ord[i-1]
				if col[prev] > col[row] {
					t.Fatalf("n=%d feature %d: %v before %v", n, f, col[prev], col[row])
				}
				if math.Float64bits(col[prev]) == math.Float64bits(col[row]) && prev > row {
					t.Fatalf("n=%d feature %d: equal values out of row order (%d before %d)", n, f, prev, row)
				}
			}
		}
	}
}
