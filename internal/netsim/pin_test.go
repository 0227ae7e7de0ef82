package netsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/dataplane"
	"campuslab/internal/netsim"
	"campuslab/internal/packet"
	"campuslab/internal/roadtest"
	"campuslab/internal/traffic"
)

// mangle passes a generator's frames through, rounds their timestamps
// down to 50 µs, so that many events fall due at once and the tie-break
// decides their order, and truncates every 41st frame to 20 bytes: an
// Ethernet header and the start of an IP header, which the parser refuses.
type mangle struct {
	gen traffic.Generator
	n   int
}

func (m *mangle) Next(f *traffic.Frame) bool {
	if !m.gen.Next(f) {
		return false
	}
	f.TS = f.TS.Truncate(50 * time.Microsecond)
	if m.n++; m.n%41 == 0 {
		f.Data = f.Data[:20]
	}
	return true
}

// pinScenario is benign campus traffic plus a DNS amplification episode
// against plan.Host(2), with unparseable frames mixed in.
func pinScenario(plan *traffic.AddressPlan, seed int64) traffic.Generator {
	benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 50, Duration: time.Second, Seed: seed})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(2),
		Start: 200 * time.Millisecond, Duration: 600 * time.Millisecond, Rate: 600, Seed: seed + 1,
	})
	return &mangle{gen: traffic.NewMerge(benign, amp)}
}

// pinNet sizes a campus whose 4 Mbit/s uplink with 6-packet queues drops
// under the pin scenarios' load.
func pinNet(plan *traffic.AddressPlan) netsim.Config {
	return netsim.Config{Plan: plan, HostsPerAccess: 10, UplinkBW: 4e6, QueueLen: 6}
}

// writeStats prints every SimStats field, LinkBytes in LinkID order.
func writeStats(w io.Writer, s netsim.SimStats) {
	fmt.Fprintf(w, "injected=%d delivered=%d qdrop=%d bdrop=%d unroutable=%d total=%d max=%d\n",
		s.Injected, s.Delivered, s.QueueDrops, s.BorderDrops, s.Unroutable, s.TotalLatency, s.MaxLatency)
	ids := make([]netsim.LinkID, 0, len(s.LinkBytes))
	for id := range s.LinkBytes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "link %d %d\n", id, s.LinkBytes[id])
	}
}

// TestReplayFingerprintPinned pins what a replay computes, field for
// field: congested queues, a per-frame border hook with taps and a
// delivery hook, a batched border hook, unparseable frames, hosts with
// no route out, and a road test on the congested campus. The hash was
// taken from the simulator that resolved a whole path per frame; a
// change to hop order, queueing, batching or accounting moves it.
func TestReplayFingerprintPinned(t *testing.T) {
	const want = "ad1d1d1fad1bc586e75917c32917be4de35b96333375c86b489672b7573ce4a8"
	plan := traffic.DefaultPlan(30)
	victim := plan.Host(2)
	h := sha256.New()

	newNet := func() (*netsim.Topology, *netsim.Network) {
		topo := netsim.BuildCampus(pinNet(plan))
		for k := 0; k < plan.TotalHosts(); k += 9 {
			netsim.CutRoute(topo, topo.NodeFor(plan.Host(k)), topo.Internet)
		}
		return topo, netsim.NewNetwork(topo)
	}

	// Per-frame border hook, with a tap on the uplink and every delivery.
	topo, net := newNet()
	net.SetBorderFunc(func(ts time.Duration, f *traffic.Frame, s *packet.Summary) bool {
		return !(s.Tuple.DstIP == victim || s.Tuple.SrcPort%7 == 0)
	})
	var tapped, tappedBytes int
	net.AddTap(topo.Uplink, func(ts time.Duration, f *traffic.Frame) { tapped, tappedBytes = tapped+1, tappedBytes+len(f.Data) })
	net.OnDeliver(func(d netsim.Delivery) {
		fmt.Fprintf(h, "d %d %d %d %d\n", d.Sent, d.Arrived, len(d.Frame.Data), d.Frame.Label)
	})
	writeStats(h, net.Replay(pinScenario(plan, 61)))
	fmt.Fprintf(h, "tap %d %d\n", tapped, tappedBytes)

	// Batched border hook: the verdict depends on a frame's position in
	// its batch, so batch boundaries are pinned too.
	_, net = newNet()
	net.SetBorderBatchFunc(func(ts []time.Duration, frames []*traffic.Frame, sums []*packet.Summary, keep []bool) {
		fmt.Fprintf(h, "b %d %d\n", ts[0], len(ts))
		for i, s := range sums {
			keep[i] = !(s.HasUDP && s.Tuple.SrcPort == 53 && (i%3 != 0 || s.WireLen%2 == 0))
		}
	})
	writeStats(h, net.Replay(pinScenario(plan, 63)))

	// A road test on the congested campus.
	rep, err := roadtest.Run(roadtest.Config{
		Campus: netsim.BuildCampus(pinNet(plan)),
		Loop: control.LoopConfig{Tier: control.TierDataPlane, Program: &dataplane.Program{
			Name: "pin-drop",
			Rules: []dataplane.Rule{{
				Conds: []dataplane.RangeCond{
					{Field: fieldNamed(t, "src_port"), Lo: 53, Hi: 53},
					{Field: fieldNamed(t, "wire_len"), Lo: 400, Hi: 65535},
				},
				Action: dataplane.ActionDrop, Class: 1, Confidence: 0.99,
			}},
			Default: dataplane.ActionPermit,
		}},
		Scenario: pinScenario(plan, 65),
		Spec:     roadtest.Spec{MinRecall: 0.5, MaxCollateral: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	writeStats(h, rep.Network)
	fmt.Fprintf(h, "roadtest %s start=%d\n", rep.Summary(), rep.AttackStart)

	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("replay fingerprint = %s, want %s", got, want)
	}
}

// fieldNamed is the data-plane field a features schema column names, as
// a program compiled from a model would match it.
func fieldNamed(t *testing.T, name string) dataplane.Field {
	t.Helper()
	for f := dataplane.Field(0); f < 64; f++ {
		if f.String() == name {
			return f
		}
	}
	t.Fatalf("no data-plane field %q", name)
	return 0
}

// udpFrame is a minimal Ethernet/IPv4/UDP frame from src to dst.
func udpFrame(src, dst netip.Addr, payload int) []byte {
	b := make([]byte, 14+20+8+payload)
	b[12], b[13] = 0x08, 0x00 // IPv4
	ip := b[14:]
	ip[0] = 0x45
	ipLen := 20 + 8 + payload
	ip[2], ip[3] = byte(ipLen>>8), byte(ipLen)
	ip[8], ip[9] = 64, 17 // TTL, UDP
	copy(ip[12:16], src.AsSlice())
	copy(ip[16:20], dst.AsSlice())
	udp := ip[20:]
	udp[0], udp[1], udp[2], udp[3] = 0x30, 0x39, 0x00, 0x35 // 12345 -> 53
	udp[4], udp[5] = byte((8+payload)>>8), byte(8+payload)
	return b
}

// TestFrameTouchesExactlyItsRoute injects one frame between random
// endpoints of several campuses: the links it crosses are Route(src, dst),
// each carrying the frame once.
func TestFrameTouchesExactlyItsRoute(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	external := netip.MustParseAddr("93.184.216.34")
	for _, cfg := range []struct{ hosts, perAccess int }{{5, 4}, {30, 10}, {40, 25}} {
		plan := traffic.DefaultPlan(cfg.hosts)
		topo := netsim.BuildCampus(netsim.Config{Plan: plan, HostsPerAccess: cfg.perAccess})
		pick := func() netip.Addr {
			if r.Intn(5) == 0 {
				return external
			}
			return plan.Host(r.Intn(plan.TotalHosts()))
		}
		for trial := 0; trial < 200; trial++ {
			src, dst := pick(), pick()
			if trial%50 == 0 {
				dst = src
			}
			data := udpFrame(src, dst, r.Intn(1000))
			net := netsim.NewNetwork(topo)
			net.Inject(&traffic.Frame{TS: time.Duration(trial), Data: data})
			stats := net.Run()
			if stats.Delivered != 1 {
				t.Fatalf("%v -> %v: delivered %d, want 1 (%+v)", src, dst, stats.Delivered, stats)
			}
			route := topo.Route(topo.NodeFor(src), topo.NodeFor(dst))
			if len(stats.LinkBytes) != len(route) {
				t.Fatalf("%v -> %v: touched %d links, route has %d", src, dst, len(stats.LinkBytes), len(route))
			}
			for _, l := range route {
				if got := stats.LinkBytes[l]; got != uint64(len(data)) {
					t.Fatalf("%v -> %v: link %d carried %d bytes, want %d", src, dst, l, got, len(data))
				}
			}
		}
	}
}
