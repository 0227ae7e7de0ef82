package dataplane

import (
	"math"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
	"campuslab/internal/xai"
)

func TestPrefixCount(t *testing.T) {
	cases := []struct {
		lo, hi uint32
		width  int
		want   int
	}{
		{0, 0, 16, 1},
		{0, 0xffff, 16, 1},  // full range = one wildcard
		{0, 0x7fff, 16, 1},  // aligned half
		{1, 0xfffe, 16, 30}, // classic worst-ish case: 2w-2
		{4, 7, 16, 1},
		{5, 6, 16, 2},
		{3, 3, 16, 1},
		{7, 2, 16, 0}, // empty
	}
	for _, c := range cases {
		if got := prefixCount(c.lo, c.hi, c.width); got != c.want {
			t.Errorf("prefixCount(%d,%d,w%d) = %d, want %d", c.lo, c.hi, c.width, got, c.want)
		}
	}
}

func TestPrefixCountProperty(t *testing.T) {
	// Property: expansion of [lo,hi] within 16-bit space is at most
	// 2*16-2 and at least 1 for non-empty ranges.
	fn := func(a, b uint16) bool {
		lo, hi := uint32(a), uint32(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		n := prefixCount(lo, hi, 16)
		return n >= 1 && n <= 30
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestRuleMatchAndCost(t *testing.T) {
	r := Rule{
		Conds: []RangeCond{
			{Field: fieldDstPort, Lo: 53, Hi: 53},
			{Field: fieldDNSResp, Lo: 1, Hi: 1},
		},
		Action: ActionDrop, Class: 1, Confidence: 0.97,
	}
	var fv fieldVector
	fv.set(fieldDstPort, 53)
	fv.set(fieldDNSResp, 1)
	if !r.matches(&fv) {
		t.Error("should match")
	}
	fv.set(fieldDNSResp, 0)
	if r.matches(&fv) {
		t.Error("should not match")
	}
	if !strings.Contains(r.String(), "drop") {
		t.Errorf("String = %q", r.String())
	}
}

// trainedModels caches the expensive DNS-amp training artifacts: the
// black-box forest, the extracted tree, the labeled dataset, and the
// backing store. Everything is treated read-only by the tests that share
// it.
var trainedModels struct {
	once   sync.Once
	err    error
	forest *ml.Forest
	tree   *ml.Tree
	ds     *features.Dataset
	st     *datastore.Store
}

// trainPacketForest builds a store with DNS-amp traffic, trains a forest
// on per-packet features and extracts a compilable tree. The result is
// trained once and shared across tests and benchmarks; treat it as
// immutable.
func trainPacketForest(t testing.TB) (*ml.Forest, *ml.Tree, *features.Dataset, *datastore.Store) {
	t.Helper()
	m := &trainedModels
	m.once.Do(func() {
		plan := traffic.DefaultPlan(40)
		benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: 81})
		amp := traffic.NewAttack(traffic.AttackConfig{
			Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(1),
			Start: 500 * time.Millisecond, Duration: 3 * time.Second, Rate: 800, Seed: 82,
		})
		st := datastore.New()
		g := traffic.NewMerge(benign, amp)
		var f traffic.Frame
		for g.Next(&f) {
			st.IngestFrame(&f)
		}
		ds := features.FromPackets(st, 1.0)
		bin := ds.BinaryRelabel(traffic.LabelDNSAmp)
		forest, err := ml.FitForest(bin, 2, ml.ForestConfig{Trees: 20, MaxDepth: 8, Seed: 83})
		if err != nil {
			m.err = err
			return
		}
		ex, err := xai.Extract(forest, bin, xai.ExtractConfig{MaxDepth: 4, Seed: 84})
		if err != nil {
			m.err = err
			return
		}
		m.forest, m.tree, m.ds, m.st = forest, ex.Tree, bin, st
	})
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.forest, m.tree, m.ds, m.st
}

// trainPacketTree is the extracted-tree view of trainPacketForest.
func trainPacketTree(t testing.TB) (*ml.Tree, *features.Dataset, *datastore.Store) {
	_, tree, ds, st := trainPacketForest(t)
	return tree, ds, st
}

func TestCompileAndClassify(t *testing.T) {
	tree, ds, _ := trainPacketTree(t)
	prog, err := Compile(tree, features.PacketSchema, CompileConfig{
		Name: "dns-amp", DropClasses: []int{1}, MinConfidence: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) == 0 {
		t.Fatal("no rules compiled")
	}
	// The compiled program must agree with the tree on the dataset
	// everywhere the program decides (permit default = class 0).
	sw := NewSwitch(DefaultResources())
	if err := sw.Load(prog); err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for i, x := range ds.X {
		var fv fieldVector
		for j := range x {
			f, _ := fieldByName(features.PacketSchema[j])
			fv.set(f, uint32(x[j]))
		}
		// Evaluate program manually (bypassing Summary parsing).
		cls := 0
		for r := range prog.Rules {
			if prog.Rules[r].matches(&fv) {
				cls = prog.Rules[r].Class
				break
			}
		}
		want := tree.Predict(x)
		total++
		if cls == want {
			agree++
		}
		_ = i
	}
	if frac := float64(agree) / float64(total); frac < 0.99 {
		t.Errorf("program/tree agreement = %v, want ~1 (integer snapping only)", frac)
	}
}

func TestCompileRejectsUnknownSchema(t *testing.T) {
	d := &features.Dataset{
		Schema: []string{"not_a_field"},
		X:      [][]float64{{0}, {1}},
		Y:      []int{0, 1},
	}
	tree, err := ml.FitTree(d, 2, ml.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(tree, d.Schema, CompileConfig{}); err == nil {
		t.Error("accepted uncompilable schema")
	}
}

func TestCompileMinConfidencePunts(t *testing.T) {
	// A noisy dataset yields impure leaves; with MinConfidence=1.01 every
	// rule must be a punt.
	d := &features.Dataset{Schema: []string{"wire_len"}}
	for i := 0; i < 100; i++ {
		d.X = append(d.X, []float64{float64(i % 10)})
		y := 0
		if i%10 > 4 {
			y = 1
		}
		if i%7 == 0 {
			y = 1 - y // noise
		}
		d.Y = append(d.Y, y)
	}
	tree, _ := ml.FitTree(d, 2, ml.TreeConfig{MaxDepth: 2})
	prog, err := Compile(tree, d.Schema, CompileConfig{DropClasses: []int{1}, MinConfidence: 1.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range prog.Rules {
		if r.Action != ActionPunt {
			t.Errorf("rule action = %v, want punt under impossible confidence bar", r.Action)
		}
	}
}

func TestSwitchEndToEndOnTraffic(t *testing.T) {
	tree, _, st := trainPacketTree(t)
	prog, err := Compile(tree, features.PacketSchema, CompileConfig{
		Name: "dns-amp", DropClasses: []int{1}, MinConfidence: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(DefaultResources())
	if err := sw.Load(prog); err != nil {
		t.Fatal(err)
	}
	var attackDropped, attackTotal, benignDropped, benignTotal int
	labelOf := map[packet.FiveTuple]traffic.Label{}
	for _, fm := range st.Flows() {
		if fm.Labeled {
			labelOf[fm.Key] = fm.Label
		}
	}
	st.Scan(func(sp *datastore.StoredPacket) bool {
		if !sp.Summary.HasIP {
			return true
		}
		v := sw.ProcessAt(0, &sp.Summary)
		isAttack := labelOf[sp.Summary.Tuple.Canonical()] == traffic.LabelDNSAmp
		if isAttack {
			attackTotal++
			if v.Action == ActionDrop {
				attackDropped++
			}
		} else {
			benignTotal++
			if v.Action == ActionDrop {
				benignDropped++
			}
		}
		return true
	})
	if attackTotal == 0 {
		t.Fatal("no attack packets")
	}
	recall := float64(attackDropped) / float64(attackTotal)
	fpr := float64(benignDropped) / float64(benignTotal)
	if recall < 0.9 {
		t.Errorf("attack drop recall = %v", recall)
	}
	if fpr > 0.02 {
		t.Errorf("benign collateral = %v", fpr)
	}
	stats := sw.Stats()
	if stats.Processed != uint64(attackTotal+benignTotal) {
		t.Error("processed counter wrong")
	}
	if stats.Dropped == 0 {
		t.Error("dropped counter zero")
	}
}

func TestSwitchFilterTable(t *testing.T) {
	sw := NewSwitch(Resources{Stages: 12, TCAMEntries: 100, ExactEntries: 2})
	victim := netip.MustParseAddr("10.1.1.5")
	if err := sw.InstallFilter(FilterKey{DstIP: victim}, ActionDrop); err != nil {
		t.Fatal(err)
	}
	s := packet.Summary{HasIP: true, Tuple: packet.FiveTuple{
		Proto: packet.IPProtocolUDP, SrcIP: netip.MustParseAddr("203.0.113.1"),
		DstIP: victim, SrcPort: 53, DstPort: 9999,
	}}
	v := sw.ProcessAt(0, &s)
	if v.Action != ActionDrop || !v.FilterHit {
		t.Errorf("verdict = %+v", v)
	}
	// Other destinations unaffected.
	s.Tuple.DstIP = netip.MustParseAddr("10.1.1.6")
	if v := sw.ProcessAt(0, &s); v.Action != ActionPermit {
		t.Errorf("innocent traffic dropped: %+v", v)
	}
	// Capacity enforcement.
	if err := sw.InstallFilter(FilterKey{DstIP: netip.MustParseAddr("10.1.1.7")}, ActionDrop); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallFilter(FilterKey{DstIP: netip.MustParseAddr("10.1.1.8")}, ActionDrop); err == nil {
		t.Error("filter table over capacity accepted")
	}
	if !sw.removeFilter(FilterKey{DstIP: victim}) {
		t.Error("remove failed")
	}
	if sw.removeFilter(FilterKey{DstIP: victim}) {
		t.Error("double remove succeeded")
	}
	if sw.filterCount() != 1 {
		t.Errorf("filter count = %d", sw.filterCount())
	}
}

func TestSwitchSpecificFilterBeatsGeneral(t *testing.T) {
	sw := NewSwitch(DefaultResources())
	victim := netip.MustParseAddr("10.1.1.5")
	resolver := netip.MustParseAddr("203.0.113.9")
	// General permit-to-victim plus specific drop from one resolver.
	if err := sw.InstallFilter(FilterKey{DstIP: victim}, ActionAlert); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallFilter(FilterKey{DstIP: victim, SrcIP: resolver, DstPort: 7777, Proto: packet.IPProtocolUDP}, ActionDrop); err != nil {
		t.Fatal(err)
	}
	s := packet.Summary{HasIP: true, Tuple: packet.FiveTuple{
		Proto: packet.IPProtocolUDP, SrcIP: resolver, DstIP: victim, SrcPort: 53, DstPort: 7777,
	}}
	if v := sw.ProcessAt(0, &s); v.Action != ActionDrop {
		t.Errorf("specific filter not preferred: %+v", v)
	}
}

func TestSwitchSourceOnlyFilter(t *testing.T) {
	sw := NewSwitch(DefaultResources())
	scanner := netip.MustParseAddr("185.220.101.7")
	if err := sw.InstallFilter(FilterKey{SrcIP: scanner}, ActionDrop); err != nil {
		t.Fatal(err)
	}
	s := packet.Summary{HasIP: true, Tuple: packet.FiveTuple{
		Proto: packet.IPProtocolTCP, SrcIP: scanner,
		DstIP: netip.MustParseAddr("10.3.1.4"), SrcPort: 55555, DstPort: 22,
	}}
	if v := sw.ProcessAt(0, &s); v.Action != ActionDrop || !v.FilterHit {
		t.Errorf("source filter missed: %+v", v)
	}
	// Different sources unaffected.
	s.Tuple.SrcIP = netip.MustParseAddr("185.220.101.8")
	if v := sw.ProcessAt(0, &s); v.Action == ActionDrop {
		t.Error("innocent source dropped")
	}
}

func TestLoadRejectsOversizedProgram(t *testing.T) {
	// Build a program whose TCAM expansion exceeds a tiny budget.
	prog := &Program{Name: "big", Default: ActionPermit}
	for i := 0; i < 50; i++ {
		prog.Rules = append(prog.Rules, Rule{
			Conds:  []RangeCond{{Field: fieldDstPort, Lo: 1, Hi: 0xfffe}}, // 30-entry expansion
			Action: ActionDrop, Class: 1,
		})
	}
	sw := NewSwitch(Resources{Stages: 12, TCAMEntries: 50, ExactEntries: 10})
	if err := sw.Load(prog); err == nil {
		t.Error("oversized program loaded")
	}
	rep := Resources{Stages: 12, TCAMEntries: 50}.Fit(prog)
	if rep.Fits || !strings.Contains(rep.Reason, "TCAM") {
		t.Errorf("fit report = %+v", rep)
	}
}

func TestStageBudget(t *testing.T) {
	var conds []RangeCond
	for f := Field(0); f < numFields; f++ {
		conds = append(conds, RangeCond{Field: f, Lo: 0, Hi: 1})
	}
	prog := &Program{Rules: []Rule{{Conds: conds, Action: ActionDrop, Class: 1}}}
	rep := Resources{Stages: 3, TCAMEntries: 1 << 20}.Fit(prog)
	if rep.Fits || !strings.Contains(rep.Reason, "stages") {
		t.Errorf("fit report = %+v", rep)
	}
}

func TestMaxConcurrent(t *testing.T) {
	prog := &Program{Rules: []Rule{{
		Conds:  []RangeCond{{Field: fieldDstPort, Lo: 53, Hi: 53}, {Field: fieldDNSResp, Lo: 1, Hi: 1}},
		Action: ActionDrop, Class: 1,
	}}}
	res := Resources{Stages: 12, TCAMEntries: 3072}
	n := res.MaxConcurrent(prog)
	if n != 3072/prog.TCAMCost() {
		t.Errorf("MaxConcurrent = %d (cost %d)", n, prog.TCAMCost())
	}
	if n < 50 || n > 1000 {
		t.Errorf("MaxConcurrent = %d; a 2-condition task should fit tens-to-hundreds of times, not %d", n, n)
	}
	// A program with expensive range rules fits far fewer times.
	exp := &Program{Rules: []Rule{{
		Conds:  []RangeCond{{Field: fieldWireLen, Lo: 1, Hi: 0xfffe}, {Field: fieldSrcPort, Lo: 1, Hi: 0xfffe}},
		Action: ActionDrop, Class: 1,
	}}}
	if m := res.MaxConcurrent(exp); m >= n {
		t.Errorf("expensive program fits %d >= cheap %d", m, n)
	}
}

func TestFieldByName(t *testing.T) {
	for i, name := range features.PacketSchema {
		f, err := fieldByName(name)
		if err != nil {
			t.Fatalf("PacketSchema[%d]=%q not matchable: %v", i, name, err)
		}
		if int(f) != i {
			t.Errorf("field order mismatch: %q = %d, schema index %d", name, f, i)
		}
	}
	if _, err := fieldByName("nope"); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestFieldMaxValue(t *testing.T) {
	if fieldDstPort.maxValue() != 0xffff || FieldIsUDP.maxValue() != 1 || fieldTTL.maxValue() != 0xff {
		t.Error("field widths wrong")
	}
}

func TestVerdictDefaults(t *testing.T) {
	sw := NewSwitch(DefaultResources())
	s := packet.Summary{HasIP: true}
	if v := sw.ProcessAt(0, &s); v.Action != ActionPermit || v.RuleIndex != -1 {
		t.Errorf("no-program verdict = %+v", v)
	}
}

func TestTCAMCostMonotonicInRuleCount(t *testing.T) {
	mk := func(n int) *Program {
		p := &Program{}
		for i := 0; i < n; i++ {
			p.Rules = append(p.Rules, Rule{Conds: []RangeCond{{Field: fieldDstPort, Lo: uint32(i), Hi: uint32(i)}}})
		}
		return p
	}
	if mk(10).TCAMCost() >= mk(20).TCAMCost() {
		t.Error("cost not monotone in rules")
	}
	if math.MaxInt32 != (Resources{Stages: 1, TCAMEntries: 5}).MaxConcurrent(&Program{}) {
		t.Error("empty program should fit unbounded")
	}
}

func BenchmarkSwitchProcess(b *testing.B) {
	tree, _, st := trainPacketTree(b)
	prog, err := Compile(tree, features.PacketSchema, CompileConfig{DropClasses: []int{1}})
	if err != nil {
		b.Fatal(err)
	}
	sw := NewSwitch(DefaultResources())
	if err := sw.Load(prog); err != nil {
		b.Fatal(err)
	}
	var summaries []packet.Summary
	st.Scan(func(sp *datastore.StoredPacket) bool {
		summaries = append(summaries, sp.Summary)
		return len(summaries) < 4096
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ProcessAt(0, &summaries[i%len(summaries)])
	}
}

func BenchmarkCompile(b *testing.B) {
	tree, _, _ := trainPacketTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(tree, features.PacketSchema, CompileConfig{DropClasses: []int{1}}); err != nil {
			b.Fatal(err)
		}
	}
}
