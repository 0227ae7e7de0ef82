package traffic

import (
	"testing"
	"testing/quick"
	"time"

	"campuslab/internal/packet"
)

func TestLabelRoundTrip(t *testing.T) {
	for l := LabelBenign; l < NumLabels; l++ {
		got, err := ParseLabel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLabel(%v) = %v, %v", l, got, err)
		}
	}
	if _, err := ParseLabel("nope"); err == nil {
		t.Error("ParseLabel accepted junk")
	}
}

func TestAddressPlan(t *testing.T) {
	p := DefaultPlan(100)
	if p.TotalHosts() != 800 {
		t.Errorf("TotalHosts = %d, want 800", p.TotalHosts())
	}
	seen := map[string]bool{}
	for i := 0; i < p.TotalHosts(); i++ {
		a := p.Host(i)
		if !p.Contains(a) {
			t.Fatalf("host %d = %v outside campus", i, a)
		}
		if seen[a.String()] {
			t.Fatalf("duplicate host address %v", a)
		}
		seen[a.String()] = true
		if p.departmentOf(a) == nil {
			t.Fatalf("host %v has no department", a)
		}
	}
	if p.Contains(p.WebServers[0]) {
		t.Error("external web server inside campus prefix")
	}
}

func TestHostIndexOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	DefaultPlan(10).Host(10 * 8)
}

func TestDiurnalFactorShape(t *testing.T) {
	if diurnalFactor(3) >= diurnalFactor(14) {
		t.Error("3am should be quieter than 2pm")
	}
	for h := 0.0; h < 48; h += 0.5 {
		f := diurnalFactor(h)
		if f <= 0 || f > 1.01 {
			t.Errorf("diurnalFactor(%v) = %v out of range", h, f)
		}
	}
}

func TestCampusGeneratorProducesOrderedDecodableFrames(t *testing.T) {
	g := NewCampus(Profile{FlowsPerSecond: 200, Duration: 2 * time.Second, Seed: 1})
	fp := packet.NewFlowParser()
	var s packet.Summary
	var prev time.Duration
	var st Stats
	var f Frame
	apps := map[uint16]bool{}
	for g.Next(&f) {
		if f.TS < prev {
			t.Fatalf("timestamps not monotone: %v after %v", f.TS, prev)
		}
		prev = f.TS
		if err := fp.Parse(f.Data, &s); err != nil {
			t.Fatalf("generated frame does not parse: %v", err)
		}
		if f.Label != LabelBenign {
			t.Fatalf("benign generator emitted label %v", f.Label)
		}
		apps[s.Tuple.SrcPort] = true
		apps[s.Tuple.DstPort] = true
		st.Observe(&f)
	}
	if st.Frames < 500 {
		t.Errorf("only %d frames in 2s at 200 flows/s", st.Frames)
	}
	for _, port := range []uint16{packet.PortHTTPS, packet.PortDNS} {
		if !apps[port] {
			t.Errorf("no traffic on well-known port %d", port)
		}
	}
}

func TestCampusGeneratorDeterministic(t *testing.T) {
	collect := func() []Frame {
		return Collect(NewCampus(Profile{FlowsPerSecond: 50, Duration: time.Second, Seed: 42}), 0)
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TS != b[i].TS || len(a[i].Data) != len(b[i].Data) || a[i].FlowID != b[i].FlowID {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestCampusGeneratorSeedsDiffer(t *testing.T) {
	a := Collect(NewCampus(Profile{FlowsPerSecond: 50, Duration: time.Second, Seed: 1}), 50)
	b := Collect(NewCampus(Profile{FlowsPerSecond: 50, Duration: time.Second, Seed: 2}), 50)
	same := 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].TS == b[i].TS {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical timestamp sequences")
	}
}

func TestDiurnalReducesNightLoad(t *testing.T) {
	day := NewCampus(Profile{FlowsPerSecond: 100, Duration: 5 * time.Second, Seed: 3, Diurnal: true, StartHour: 14})
	night := NewCampus(Profile{FlowsPerSecond: 100, Duration: 5 * time.Second, Seed: 3, Diurnal: true, StartHour: 3})
	var sd, sn Stats
	var f Frame
	for day.Next(&f) {
		sd.Observe(&f)
	}
	for night.Next(&f) {
		sn.Observe(&f)
	}
	if sn.Frames >= sd.Frames {
		t.Errorf("night frames %d >= day frames %d", sn.Frames, sd.Frames)
	}
}

func TestDNSAmpAttack(t *testing.T) {
	plan := DefaultPlan(50)
	victim := plan.Host(3)
	g := NewAttack(AttackConfig{
		Kind: LabelDNSAmp, Victim: victim, Plan: plan,
		Start: time.Second, Duration: 2 * time.Second, Rate: 1000, Seed: 7,
	})
	fp := packet.NewFlowParser()
	var s packet.Summary
	var f Frame
	n, bytes := 0, 0
	for g.Next(&f) {
		if f.TS < time.Second || f.TS >= 3*time.Second {
			t.Fatalf("frame at %v outside episode", f.TS)
		}
		if err := fp.Parse(f.Data, &s); err != nil {
			t.Fatalf("attack frame does not parse: %v", err)
		}
		if s.Tuple.DstIP != victim {
			t.Fatalf("attack frame to %v, want victim %v", s.Tuple.DstIP, victim)
		}
		if !s.IsDNS || !s.DNSResponse {
			t.Fatal("dns-amp frame is not a DNS response")
		}
		if s.DNSQueryType != packet.DNSTypeANY && s.DNSQueryType != packet.DNSTypeTXT {
			t.Fatalf("qtype = %v, want ANY or TXT", s.DNSQueryType)
		}
		if f.Label != LabelDNSAmp || f.Dir != DirInbound {
			t.Fatalf("label/dir = %v/%v", f.Label, f.Dir)
		}
		n++
		bytes += len(f.Data)
	}
	if n < 1500 || n > 2500 {
		t.Errorf("frames = %d, want ~2000 at 1000pps for 2s", n)
	}
	if avg := bytes / n; avg < 500 {
		t.Errorf("average amplified response %dB, want large", avg)
	}
}

func TestSYNFloodAttack(t *testing.T) {
	plan := DefaultPlan(50)
	g := NewAttack(AttackConfig{Kind: LabelSYNFlood, Plan: plan, Duration: time.Second, Rate: 5000, Seed: 8})
	fp := packet.NewFlowParser()
	var s packet.Summary
	var f Frame
	srcs := map[string]bool{}
	n := 0
	for g.Next(&f) {
		if err := fp.Parse(f.Data, &s); err != nil {
			t.Fatal(err)
		}
		if !s.TCPFlags.Has(packet.TCPSyn) || s.TCPFlags.Has(packet.TCPAck) {
			t.Fatalf("flags = %v, want bare SYN", s.TCPFlags)
		}
		srcs[s.Tuple.SrcIP.String()] = true
		n++
	}
	if n < 4000 {
		t.Errorf("frames = %d, want ~5000", n)
	}
	if len(srcs) < n/2 {
		t.Errorf("only %d distinct spoofed sources over %d SYNs", len(srcs), n)
	}
}

func TestPortScanAttack(t *testing.T) {
	plan := DefaultPlan(50)
	g := NewAttack(AttackConfig{Kind: LabelPortScan, Plan: plan, Duration: 2 * time.Second, Rate: 500, Seed: 9})
	fp := packet.NewFlowParser()
	var s packet.Summary
	var f Frame
	targets := map[string]bool{}
	ports := map[uint16]bool{}
	rsts := 0
	for g.Next(&f) {
		if err := fp.Parse(f.Data, &s); err != nil {
			t.Fatal(err)
		}
		if s.TCPFlags.Has(packet.TCPRst) {
			rsts++
			continue
		}
		targets[s.Tuple.DstIP.String()] = true
		ports[s.Tuple.DstPort] = true
	}
	if len(targets) < 100 {
		t.Errorf("scan touched only %d hosts", len(targets))
	}
	if len(ports) < 10 {
		t.Errorf("scan touched only %d ports", len(ports))
	}
	if rsts == 0 {
		t.Error("no RST replies generated")
	}
}

func TestBeaconAttackPeriodicity(t *testing.T) {
	plan := DefaultPlan(50)
	g := NewAttack(AttackConfig{
		Kind: LabelBeacon, Plan: plan, Victim: plan.Host(10),
		Duration: 10 * time.Minute, Rate: 120, Seed: 10, // every 30s
	})
	var f Frame
	var synTimes []time.Duration
	fp := packet.NewFlowParser()
	var s packet.Summary
	for g.Next(&f) {
		if err := fp.Parse(f.Data, &s); err != nil {
			t.Fatal(err)
		}
		if s.TCPFlags == packet.TCPSyn {
			synTimes = append(synTimes, f.TS)
		}
	}
	if len(synTimes) < 15 {
		t.Fatalf("only %d beacons in 10min at 30s period", len(synTimes))
	}
	// Mean inter-beacon gap should be near 30s.
	var sum time.Duration
	for i := 1; i < len(synTimes); i++ {
		sum += synTimes[i] - synTimes[i-1]
	}
	mean := sum / time.Duration(len(synTimes)-1)
	if mean < 25*time.Second || mean > 35*time.Second {
		t.Errorf("mean beacon period %v, want ~30s", mean)
	}
}

func TestMergeOrdersStreams(t *testing.T) {
	plan := DefaultPlan(50)
	benign := NewCampus(Profile{Plan: plan, FlowsPerSecond: 100, Duration: 3 * time.Second, Seed: 1})
	amp := NewAttack(AttackConfig{Kind: LabelDNSAmp, Plan: plan, Start: time.Second, Duration: time.Second, Rate: 500, Seed: 2})
	m := NewMerge(benign, amp)
	var prev time.Duration
	var f Frame
	var st Stats
	for m.Next(&f) {
		if f.TS < prev {
			t.Fatalf("merged stream out of order: %v after %v", f.TS, prev)
		}
		prev = f.TS
		st.Observe(&f)
	}
	if st.ByLabel[LabelBenign] == 0 || st.ByLabel[LabelDNSAmp] == 0 {
		t.Errorf("merge lost a class: %+v", st.ByLabel)
	}
}

func TestStatsOfferedRate(t *testing.T) {
	var st Stats
	st.Observe(&Frame{TS: 0, Data: make([]byte, 1250)})
	st.Observe(&Frame{TS: time.Second, Data: make([]byte, 1250)})
	// 2500 bytes over 1 second = 20 kbit/s
	if got := st.OfferedRate(); got < 19_000 || got > 21_000 {
		t.Errorf("OfferedRate = %v", got)
	}
}

func TestRNGDistributions(t *testing.T) {
	g := newPRNG(5)
	// Pareto: all draws >= xm; mean for alpha>1 is finite.
	for i := 0; i < 1000; i++ {
		if v := g.pareto(100, 1.5); v < 100 {
			t.Fatalf("pareto draw %v < xm", v)
		}
	}
	// Zipf: index 0 should be the most frequent.
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[g.zipf(10)]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("zipf head %d <= tail %d", counts[0], counts[9])
	}
	if g.zipf(1) != 0 || g.zipf(0) != 0 {
		t.Error("zipf degenerate cases wrong")
	}
}

func TestRNGExpProperty(t *testing.T) {
	fn := func(seed int64) bool {
		g := newPRNG(seed)
		var sum float64
		const n = 2000
		for i := 0; i < n; i++ {
			v := g.exp(10)
			if v < 0 {
				return false
			}
			sum += v
		}
		mean := sum / n
		return mean > 8 && mean < 12 // loose CLT bound
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCampusGenerator(b *testing.B) {
	g := NewCampus(Profile{FlowsPerSecond: 1000, Duration: time.Hour, Seed: 1})
	var f Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !g.Next(&f) {
			b.Fatal("generator exhausted")
		}
	}
}
