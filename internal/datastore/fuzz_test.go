package datastore

import (
	"sync"
	"testing"
	"time"

	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// filterFuzzSeeds mixes every grammar production with near-misses and
// degenerate inputs so the fuzzer starts at the interesting boundaries.
func filterFuzzSeeds() []string {
	return []string{
		"proto == udp && dst.port == 53",
		"src.ip in 10.0.0.0/8 && len > 1000",
		"dns && dns.qtype == ANY && dns.resp",
		"ts >= 5s && ts < 10s && tcp.syn && !tcp.ack",
		"label == dns-amp",
		"label != benign",
		"link == 2",
		"(proto == tcp || proto == udp) && payload.len >= 1",
		"!(dns) && ttl <= 64",
		"dns.answers > 0",
		"src.port == 70000",
		"proto == 255",
		"ts == 3s",
		"dst.ip == 10.0.0.1",
		"proto ==",
		"&& dns",
		"ts >= 5x",
		"label == bogus",
		"src.ip in 10.0.0.0/33",
		"((((dns))))",
		"",
		"!",
		"ts<1s&&ts>0s",
		// The exact-window shapes: every operator, bounds that tighten,
		// negative and extreme values, conjuncts the window cannot state.
		"ts > 1500ms && ts <= 1500ms",
		"ts >= 3s && ts == 1s",
		"ts == 1s && ts == 1s && proto == udp",
		"ts != 2s && udp",
		"ts < -5s",
		"ts > -5s && ts <= 0 && dns",
		"ts <= 9223372036854775807ns && udp",
		"ts >= -9223372036854775808ns",
		"!(ts < 1s) && (ts < 2s || ts > 3s)",
		"ts >= 1000000000ns && ts < 1000000001ns && link == 0",
	}
}

// fuzzEvalPackets is a small packet population for exercising compiled
// predicates: real generator traffic (DNS/TCP/UDP mix), a non-IP frame,
// and the zero packet. Built once — the fuzz body must stay fast.
var fuzzEvalPackets = sync.OnceValue(func() []*StoredPacket {
	plan := traffic.DefaultPlan(10)
	g := traffic.NewMerge(
		traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 30, Duration: time.Second, Seed: 7}),
		traffic.NewAttack(traffic.AttackConfig{
			Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(2),
			Duration: time.Second, Rate: 40, Seed: 8,
		}),
	)
	p := packet.NewFlowParser()
	var out []*StoredPacket
	var f traffic.Frame
	for i := 0; g.Next(&f) && len(out) < 64; i++ {
		sp := &StoredPacket{ID: PacketID(i), TS: f.TS, Link: uint16(i % 3), Label: f.Label, Actor: f.Actor}
		_ = p.Parse(f.Data, &sp.Summary)
		sp.Data = append([]byte(nil), f.Data...)
		out = append(out, sp)
	}
	out = append(out, &StoredPacket{}, &StoredPacket{Summary: packet.Summary{WireLen: 9000}})
	return out
})

// FuzzParseFilter drives the filter parser/compiler with arbitrary
// expression text. Invariants: parsing never panics; a parse either
// errors or yields a filter whose Match never panics on any packet;
// parsing is deterministic (same accept/reject, same matches, same time
// bounds and plan shape on every parse of the same text).
func FuzzParseFilter(f *testing.F) {
	for _, seed := range filterFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		f1, err1 := ParseFilter(expr)
		f2, err2 := ParseFilter(expr)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("parse not deterministic: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if f1.source() != expr {
			t.Fatalf("Expr() = %q, want %q", f1.source(), expr)
		}
		if f1.Indexable() != f2.Indexable() || len(f1.plan.keys) != len(f2.plan.keys) || f1.plan.win != f2.plan.win {
			t.Fatalf("plan not deterministic for %q", expr)
		}
		for _, sp := range fuzzEvalPackets() {
			if f1.match(sp) != f2.match(sp) {
				t.Fatalf("match not deterministic for %q on packet %d", expr, sp.ID)
			}
		}
	})
}
