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
// sit either way round), identical values in row order.
func TestRadixSortOrders(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	special := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	// bits draws any non-NaN float64, so every 11-bit digit of the sort
	// key varies; n = 5000 puts thousands of keys through each pass.
	bits := func() float64 {
		for {
			if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) {
				return v
			}
		}
	}
	for _, n := range []int{1, 2, 17, 1000, 5000} {
		d := &features.Dataset{Schema: []string{"normal", "special", "small", "bits"}, Y: make([]int, n)}
		for i := 0; i < n; i++ {
			d.X = append(d.X, []float64{r.NormFloat64() * 1e3, special[r.Intn(len(special))], float64(r.Intn(3)), bits()})
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
