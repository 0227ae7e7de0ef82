package features

import (
	"math"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/packet"
	"campuslab/internal/telemetry"
	"campuslab/internal/traffic"
)

var campusPfx = netip.MustParsePrefix("10.0.0.0/8")

// scenarioStore builds a store with benign traffic plus DNS-amp and
// SYN-flood episodes against distinct victims.
func scenarioStore(t testing.TB) *datastore.Store {
	t.Helper()
	plan := traffic.DefaultPlan(50)
	benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 6 * time.Second, Seed: 31})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(2),
		Start: time.Second, Duration: 3 * time.Second, Rate: 600, Seed: 32,
	})
	flood := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelSYNFlood, Plan: plan, Victim: plan.Host(9),
		Start: 2 * time.Second, Duration: 2 * time.Second, Rate: 800, Seed: 33,
	})
	g := traffic.NewMerge(benign, amp, flood)
	st := datastore.New()
	var f traffic.Frame
	for g.Next(&f) {
		st.IngestFrame(&f)
	}
	return st
}

func TestFromFlowsProducesValidDataset(t *testing.T) {
	st := scenarioStore(t)
	d := FromFlows(st, campusPfx)
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() < 100 {
		t.Fatalf("only %d flow examples", d.Len())
	}
	counts := d.ClassCounts()
	if counts[int(traffic.LabelDNSAmp)] == 0 || counts[int(traffic.LabelSYNFlood)] == 0 || counts[int(traffic.LabelBenign)] == 0 {
		t.Fatalf("class counts %v missing a class", counts)
	}
}

func TestFlowFeatureSemantics(t *testing.T) {
	st := scenarioStore(t)
	d := FromFlows(st, campusPfx)
	ampIdx := index(flowSchema, "dns_resp_excess")
	anyIdx := index(flowSchema, "dns_any_frac")
	synIdx := index(flowSchema, "syn_no_ack")
	var ampExcess, benignExcess, ampAny, benignAny, nAmp, nBenign float64
	for i, row := range d.X {
		switch d.Y[i] {
		case int(traffic.LabelDNSAmp):
			ampExcess += row[ampIdx]
			ampAny += row[anyIdx]
			nAmp++
		case int(traffic.LabelSYNFlood):
			if row[synIdx] != 1 {
				t.Error("syn-flood flow without syn_no_ack")
			}
		case int(traffic.LabelBenign):
			benignExcess += row[ampIdx]
			benignAny += row[anyIdx]
			nBenign++
		}
	}
	if ampExcess/nAmp <= benignExcess/nBenign {
		t.Errorf("dns_resp_excess does not separate: amp %v vs benign %v", ampExcess/nAmp, benignExcess/nBenign)
	}
	if ampAny/nAmp <= benignAny/nBenign {
		t.Errorf("dns_any_frac does not separate on average: amp %v vs benign %v", ampAny/nAmp, benignAny/nBenign)
	}
}

func TestSplitAndShuffle(t *testing.T) {
	d := &Dataset{Schema: []string{"a"}}
	for i := 0; i < 100; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, i%2)
	}
	d.Shuffle(7)
	train, test := d.Split(0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Errorf("split = %d/%d", train.Len(), test.Len())
	}
	// Shuffle determinism
	d2 := &Dataset{Schema: []string{"a"}}
	for i := 0; i < 100; i++ {
		d2.X = append(d2.X, []float64{float64(i)})
		d2.Y = append(d2.Y, i%2)
	}
	d2.Shuffle(7)
	for i := range d.X {
		if d.X[i][0] != d2.X[i][0] {
			t.Fatal("shuffle not deterministic")
		}
	}
}

func TestBinaryRelabel(t *testing.T) {
	d := &Dataset{Schema: []string{"a"}, X: [][]float64{{1}, {2}, {3}}, Y: []int{0, 1, 2}}
	b := d.BinaryRelabel(traffic.Label(2))
	if b.Y[0] != 0 || b.Y[1] != 0 || b.Y[2] != 1 {
		t.Errorf("relabel = %v", b.Y)
	}
}

func TestStandardizer(t *testing.T) {
	d := &Dataset{Schema: []string{"a", "b"}}
	for i := 0; i < 100; i++ {
		d.X = append(d.X, []float64{float64(i), 5}) // col b constant
		d.Y = append(d.Y, 0)
	}
	s := FitStandardizer(d)
	// Column a is 0..99: mean 49.5, population variance (100²-1)/12.
	if s.Mean[0] != 49.5 || math.Abs(s.Scale[0]-math.Sqrt(833.25)) > 1e-9 {
		t.Errorf("column a: mean/scale = %v/%v", s.Mean[0], s.Scale[0])
	}
	// A constant column scales by 1, never by 0 (which would make NaNs).
	if s.Mean[1] != 5 || s.Scale[1] != 1 {
		t.Errorf("constant column: mean/scale = %v/%v, want 5/1", s.Mean[1], s.Scale[1])
	}
}

func TestEntropy(t *testing.T) {
	if got := entropy(map[string]int{"a": 1, "b": 1}); math.Abs(got-1) > 1e-9 {
		t.Errorf("uniform 2 = %v, want 1 bit", got)
	}
	if got := entropy(map[string]int{"a": 10}); got != 0 {
		t.Errorf("single = %v, want 0", got)
	}
	if got := entropy(map[string]int{}); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

func TestEntropyProperty(t *testing.T) {
	// Property: entropy of n uniform keys is log2(n), and entropy is
	// maximized by uniformity.
	fn := func(n uint8) bool {
		k := int(n%16) + 1
		m := map[int]int{}
		for i := 0; i < k; i++ {
			m[i] = 7
		}
		return math.Abs(entropy(m)-math.Log2(float64(k))) < 1e-9
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	d := &Dataset{Schema: []string{"a"}, X: [][]float64{{math.NaN()}}, Y: []int{0}}
	if err := d.validate(); err == nil {
		t.Error("NaN accepted")
	}
	d = &Dataset{Schema: []string{"a"}, X: [][]float64{{1, 2}}, Y: []int{0}}
	if err := d.validate(); err == nil {
		t.Error("dim mismatch accepted")
	}
	d = &Dataset{Schema: []string{"a"}, X: [][]float64{{1}}, Y: []int{}}
	if err := d.validate(); err == nil {
		t.Error("row/label mismatch accepted")
	}
}

func TestAppendSchemaMismatch(t *testing.T) {
	a := &Dataset{Schema: []string{"x"}}
	b := &Dataset{Schema: []string{"x", "y"}}
	if err := a.Append(b); err == nil {
		t.Error("schema mismatch accepted")
	}
	c := &Dataset{}
	if err := c.Append(&Dataset{Schema: []string{"x"}, X: [][]float64{{1}}, Y: []int{0}}); err != nil || c.Len() != 1 {
		t.Error("append into empty failed")
	}
}

func TestFromFlowRecords(t *testing.T) {
	tuple := packet.FiveTuple{
		Proto: packet.IPProtocolUDP,
		SrcIP: netip.MustParseAddr("203.0.113.5"), DstIP: netip.MustParseAddr("10.1.1.5"),
		SrcPort: 53, DstPort: 4444,
	}
	recs := []telemetry.FlowRecord{{
		Tuple: tuple.Canonical(), Packets: 5, Bytes: 5000,
		First: 0, Last: time.Second,
	}}
	truth := map[packet.FiveTuple]traffic.Label{tuple.Canonical(): traffic.LabelDNSAmp}
	d := FromFlowRecords(recs, 10, truth)
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	if d.Y[0] != int(traffic.LabelDNSAmp) {
		t.Error("truth label not applied")
	}
	if d.X[0][index(flowRecordSchema, "pkts")] != 50 {
		t.Errorf("sampling scale-up wrong: %v", d.X[0][1])
	}
}

func index(schema []string, name string) int {
	for i, s := range schema {
		if s == name {
			return i
		}
	}
	panic("no column " + name)
}

func BenchmarkFromFlows(b *testing.B) {
	st := scenarioStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromFlows(st, campusPfx)
	}
}

// TestWindowedExtractorsDeterministic: every extractor that groups packets
// or flows into a map — pairs, source windows (batch and streaming) —
// returns the same rows in the same order each time it runs on the same
// store, entropy columns included to the last bit.
func TestWindowedExtractorsDeterministic(t *testing.T) {
	st := scenarioStore(t)
	streamed := func() any {
		tr := NewSourceWindowTracker(SourceWindowConfig{Window: time.Second, Campus: campusPfx})
		var out []SourceWindowResult
		st.Scan(func(sp *datastore.StoredPacket) bool {
			out = append(out, tr.Observe(sp.TS, &sp.Summary)...)
			return true
		})
		return append(out, tr.Flush()...)
	}
	for _, c := range []struct {
		name    string
		extract func() any
		rows    func(any) int
	}{
		{"FromPairs", func() any {
			d, ids := FromPairs(st, PairConfig{Campus: campusPfx, MinConnections: 2})
			return []any{d, ids}
		}, func(v any) int { return v.([]any)[0].(*Dataset).Len() }},
		{"FromSourceWindows", func() any { return FromSourceWindows(st, SourceWindowConfig{Window: time.Second, Campus: campusPfx}) },
			func(v any) int { return v.(*Dataset).Len() }},
		{"SourceWindowTracker", streamed, func(v any) int { return len(v.([]SourceWindowResult)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			first := c.extract()
			if n := c.rows(first); n < 2 {
				t.Fatalf("%d rows cannot show an order", n)
			}
			for run := 0; run < 3; run++ {
				if !reflect.DeepEqual(first, c.extract()) {
					t.Fatal("two runs over one store differ")
				}
			}
		})
	}
}
