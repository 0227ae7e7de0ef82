package netsim

import (
	"net/netip"
	"testing"
	"time"

	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

func smallTopo(t testing.TB) *Topology {
	t.Helper()
	return BuildCampus(Config{Plan: traffic.DefaultPlan(30), HostsPerAccess: 10})
}

func TestBuildCampusStructure(t *testing.T) {
	plan := traffic.DefaultPlan(30)
	topo := BuildCampus(Config{Plan: plan, HostsPerAccess: 10})
	if len(topo.hostNode) != plan.TotalHosts() {
		t.Errorf("hosts = %d, want %d", len(topo.hostNode), plan.TotalHosts())
	}
	var kinds [6]int
	for _, n := range topo.Nodes {
		kinds[n.Kind]++
	}
	if kinds[kindCore] != 1 || kinds[kindBorder] != 1 || kinds[kindInternet] != 1 {
		t.Errorf("core/border/internet = %d/%d/%d", kinds[kindCore], kinds[kindBorder], kinds[kindInternet])
	}
	if kinds[kindDist] != len(plan.Departments) {
		t.Errorf("dist = %d, want %d", kinds[kindDist], len(plan.Departments))
	}
	if kinds[kindHost] != plan.TotalHosts() {
		t.Errorf("host nodes = %d", kinds[kindHost])
	}
	// Every link must be paired with its reverse.
	for _, l := range topo.Links {
		found := false
		for _, r := range topo.Links {
			if r.From == l.To && r.To == l.From {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("link %d has no reverse", l.ID)
		}
	}
	// Uplink identified.
	if topo.Links[topo.Uplink].From != topo.Border || topo.Links[topo.Uplink].To != topo.Internet {
		t.Error("uplink misidentified")
	}
}

func TestRouting(t *testing.T) {
	plan := traffic.DefaultPlan(30)
	topo := BuildCampus(Config{Plan: plan, HostsPerAccess: 10})
	h0 := topo.nodeFor(plan.Host(0))
	hLast := topo.nodeFor(plan.Host(plan.TotalHosts() - 1))
	ext := topo.nodeFor(netip.MustParseAddr("93.184.216.34"))
	if ext != topo.Internet {
		t.Fatal("external IP not mapped to internet")
	}
	// Host to internet passes the border.
	path := topo.route(h0, ext)
	if path == nil {
		t.Fatal("no route host->internet")
	}
	viaBorder := false
	for _, l := range path {
		if topo.Links[l].To == topo.Border {
			viaBorder = true
		}
	}
	if !viaBorder {
		t.Error("host->internet route avoids border")
	}
	// Host to host in different departments passes the core, not border.
	path = topo.route(h0, hLast)
	if path == nil {
		t.Fatal("no route host->host")
	}
	for _, l := range path {
		if topo.Links[l].To == topo.Internet {
			t.Error("internal route leaves campus")
		}
	}
	// Path endpoints are consistent.
	if topo.Links[path[0]].From != h0 || topo.Links[path[len(path)-1]].To != hLast {
		t.Error("path endpoints wrong")
	}
	if topo.route(h0, h0) != nil {
		t.Error("self route should be empty")
	}
}

func TestReplayDeliversTraffic(t *testing.T) {
	plan := traffic.DefaultPlan(30)
	topo := BuildCampus(Config{Plan: plan, HostsPerAccess: 10})
	net := NewNetwork(topo)
	var deliveries []Delivery
	net.OnDeliver(func(d Delivery) { deliveries = append(deliveries, d) })
	gen := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 40, Duration: 2 * time.Second, Seed: 51})
	stats := net.Replay(gen)
	if stats.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if stats.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if stats.Delivered+stats.QueueDrops+stats.BorderDrops != stats.Injected {
		t.Errorf("accounting: %d delivered + %d qdrop + %d bdrop != %d injected",
			stats.Delivered, stats.QueueDrops, stats.BorderDrops, stats.Injected)
	}
	if stats.TotalLatency <= 0 {
		t.Error("zero total latency")
	}
	// External RTT dominated by the 5ms uplink propagation.
	for _, d := range deliveries[:10] {
		if d.Latency() <= 0 {
			t.Fatalf("non-positive latency %v", d.Latency())
		}
	}
}

func TestBorderFuncDrops(t *testing.T) {
	plan := traffic.DefaultPlan(30)
	topo := BuildCampus(Config{Plan: plan, HostsPerAccess: 10})
	net := NewNetwork(topo)
	victim := plan.Host(0)
	net.setBorderFunc(func(ts time.Duration, f *traffic.Frame, s *packet.Summary) bool {
		return s.Tuple.DstIP != victim // drop everything to the victim
	})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: victim,
		Duration: time.Second, Rate: 200, Seed: 52,
	})
	stats := net.Replay(amp)
	if stats.BorderDrops == 0 {
		t.Fatal("border dropped nothing")
	}
	if stats.Delivered != 0 {
		t.Errorf("%d attack packets leaked past the border", stats.Delivered)
	}
}

func TestTapsSeeBorderTraffic(t *testing.T) {
	plan := traffic.DefaultPlan(30)
	topo := BuildCampus(Config{Plan: plan, HostsPerAccess: 10})
	net := NewNetwork(topo)
	var tapped int
	net.addTap(topo.DownLink, func(ts time.Duration, f *traffic.Frame) { tapped++ })
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(1),
		Duration: time.Second, Rate: 100, Seed: 53,
	})
	stats := net.Replay(amp)
	if tapped == 0 {
		t.Fatal("tap saw nothing")
	}
	if uint64(tapped) != stats.Injected-stats.Unroutable {
		t.Errorf("tap saw %d, injected %d", tapped, stats.Injected)
	}
}

func TestCongestionDropsAndLatency(t *testing.T) {
	plan := traffic.DefaultPlan(30)
	// Starve the uplink: 1 Mbps with tiny queues.
	topoSlow := BuildCampus(Config{Plan: plan, HostsPerAccess: 10, UplinkBW: 1e6, QueueLen: 8})
	topoFast := BuildCampus(Config{Plan: plan, HostsPerAccess: 10})
	fp := packet.NewFlowParser()
	mk := func(topo *Topology) (SimStats, time.Duration) {
		net := NewNetwork(topo)
		// Mean latency over *external* deliveries only: survivors of
		// internal-only paths would otherwise mask uplink queueing.
		var extLat time.Duration
		var extN int
		net.OnDeliver(func(d Delivery) {
			var s packet.Summary
			if err := fp.Parse(d.Frame.Data, &s); err != nil {
				return
			}
			if !plan.Contains(s.Tuple.SrcIP) || !plan.Contains(s.Tuple.DstIP) {
				extLat += d.Latency()
				extN++
			}
		})
		gen := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 150, Duration: 2 * time.Second, Seed: 54})
		stats := net.Replay(gen)
		if extN == 0 {
			return stats, 0
		}
		return stats, extLat / time.Duration(extN)
	}
	slow, slowExt := mk(topoSlow)
	fast, fastExt := mk(topoFast)
	if slow.QueueDrops == 0 {
		t.Error("no drops on a starved uplink")
	}
	if fast.QueueDrops > slow.QueueDrops/10 {
		t.Errorf("fast network dropped %d vs slow %d", fast.QueueDrops, slow.QueueDrops)
	}
	if slowExt <= fastExt {
		t.Errorf("congested external latency %v <= uncongested %v", slowExt, fastExt)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	plan := traffic.DefaultPlan(30)
	topo := BuildCampus(Config{Plan: plan, HostsPerAccess: 10})
	net := NewNetwork(topo)
	gen := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 100, Duration: 2 * time.Second, Seed: 55})
	stats := net.Replay(gen)
	up := topo.Links[topo.Uplink]
	// The uplink carried traffic, and not much more than its bandwidth
	// allows over the run.
	bits := float64(stats.LinkBytes[up.ID] * 8)
	if bits <= 0 || bits > 1.5*up.Bandwidth*2 {
		t.Errorf("uplink carried %v bits in 2s at %v bit/s", bits, up.Bandwidth)
	}
}

func TestNodeKindString(t *testing.T) {
	if kindBorder.String() != "border" || kindHost.String() != "host" {
		t.Error("kind names wrong")
	}
}

// sliceGen replays a fixed slice of frames.
type sliceGen struct {
	frames []traffic.Frame
	i      int
}

func (g *sliceGen) Next(f *traffic.Frame) bool {
	if g.i == len(g.frames) {
		return false
	}
	*f = g.frames[g.i]
	g.i++
	return true
}

// TestReplayAllocsFlat holds a replay to allocating per run, not per
// frame or hop: over a topology built once, a replay of 8192 frames
// through the batched border hook allocates no more than one of 1024.
func TestReplayAllocsFlat(t *testing.T) {
	plan := traffic.DefaultPlan(30)
	topo := BuildCampus(Config{Plan: plan, HostsPerAccess: 10})
	gen := traffic.NewMerge(
		traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: 57}),
		traffic.NewAttack(traffic.AttackConfig{
			Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(3),
			Start: 500 * time.Millisecond, Duration: 2 * time.Second, Rate: 800, Seed: 58,
		}))
	var frames []traffic.Frame
	for f := (traffic.Frame{}); len(frames) < 8192 && gen.Next(&f); {
		frames = append(frames, f)
	}
	if len(frames) < 8192 {
		t.Fatalf("scenario has %d frames, want 8192", len(frames))
	}
	var net *Network
	replay := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			net = NewNetwork(topo)
			net.SetBorderBatchFunc(func(ts []time.Duration, frames []*traffic.Frame, sums []*packet.Summary, keep []bool) {
				for i, s := range sums {
					keep[i] = s.Tuple.SrcPort != 53
				}
			})
			net.Replay(&sliceGen{frames: frames[:n]})
		})
	}
	small, large := replay(1024), replay(8192)
	t.Logf("allocations per replay: %v at 1024 frames, %v at 8192", small, large)
	if large > small+16 {
		t.Fatalf("a replay of 8192 frames allocates %v, one of 1024 %v: something allocates per frame", large, small)
	}
	// Every event went back: the free list holds whole chunks.
	free := 0
	for ev := net.free; ev != nil; ev = ev.next {
		free++
	}
	if free == 0 || free%eventChunk != 0 {
		t.Fatalf("%d events on the free list after a replay, want a multiple of %d", free, eventChunk)
	}
}

func BenchmarkReplay(b *testing.B) {
	plan := traffic.DefaultPlan(30)
	topo := BuildCampus(Config{Plan: plan, HostsPerAccess: 10})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := NewNetwork(topo)
		gen := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 50, Duration: time.Second, Seed: 56})
		net.Replay(gen)
	}
}
