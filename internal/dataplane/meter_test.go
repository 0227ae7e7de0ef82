package dataplane

import (
	"net/netip"
	"testing"
	"time"

	"campuslab/internal/packet"
)

func TestTokenBucketSteadyStateUnderRate(t *testing.T) {
	// 1 MB/s limit, 1000B packets every ms = exactly 1 MB/s: all conform.
	tb, err := newTokenBucket(1e6, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if !tb.conforms(time.Duration(i)*time.Millisecond, 1000) {
			t.Fatalf("packet %d marked at exactly the rate", i)
		}
	}
	c, e := tb.stats()
	if c != 1000 || e != 0 {
		t.Errorf("stats = %d/%d", c, e)
	}
}

func TestTokenBucketMarksExcess(t *testing.T) {
	// 100 KB/s limit, offered 1 MB/s: ~90% should exceed after the
	// initial burst drains.
	tb, _ := newTokenBucket(100_000, 10_000)
	var conf, exc int
	for i := 0; i < 2000; i++ {
		if tb.conforms(time.Duration(i)*time.Millisecond, 1000) {
			conf++
		} else {
			exc++
		}
	}
	frac := float64(conf) / 2000
	if frac < 0.08 || frac > 0.15 {
		t.Errorf("conforming fraction = %v, want ~0.1 (rate/offered)", frac)
	}
}

func TestTokenBucketBurstAbsorbed(t *testing.T) {
	// After idling, a burst up to the bucket depth passes at once.
	tb, _ := newTokenBucket(1e6, 50_000)
	if !tb.conforms(0, 1000) {
		t.Fatal("first packet marked")
	}
	// Idle 1s refills fully; then a 50KB burst in one instant conforms.
	passed := 0
	for i := 0; i < 60; i++ {
		if tb.conforms(time.Second, 1000) {
			passed++
		}
	}
	if passed < 48 || passed > 52 {
		t.Errorf("burst passed %d packets, want ~50", passed)
	}
}

func TestTokenBucketValidation(t *testing.T) {
	if _, err := newTokenBucket(0, 100); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := newTokenBucket(100, 0); err == nil {
		t.Error("zero burst accepted")
	}
}

func TestSwitchRateLimitFilter(t *testing.T) {
	sw := NewSwitch(DefaultResources())
	victim := netip.MustParseAddr("10.1.1.5")
	// 10 KB/s toward the victim.
	if err := sw.InstallRateLimit(FilterKey{DstIP: victim, Proto: packet.IPProtocolUDP}, 10_000, 5_000); err != nil {
		t.Fatal(err)
	}
	s := packet.Summary{HasIP: true, WireLen: 1000, Tuple: packet.FiveTuple{
		Proto: packet.IPProtocolUDP, SrcIP: netip.MustParseAddr("203.0.113.1"),
		DstIP: victim, SrcPort: 53, DstPort: 9999,
	}}
	// Offer 100 KB/s for 2 virtual seconds.
	var dropped, permitted int
	for i := 0; i < 200; i++ {
		v := sw.ProcessAt(time.Duration(i)*10*time.Millisecond, &s)
		if !v.FilterHit {
			t.Fatal("meter not consulted")
		}
		if v.Action == ActionDrop {
			dropped++
		} else {
			permitted++
		}
	}
	if permitted < 15 || permitted > 35 {
		t.Errorf("permitted %d of 200 at 10%% profile (plus burst)", permitted)
	}
	// TCP to the victim is not metered (proto-scoped key).
	s.Tuple.Proto = packet.IPProtocolTCP
	if v := sw.ProcessAt(3*time.Second, &s); v.FilterHit {
		t.Error("TCP hit a UDP-scoped meter")
	}
	// removeFilter clears meters too.
	if !sw.removeFilter(FilterKey{DstIP: victim, Proto: packet.IPProtocolUDP}) {
		t.Error("meter removal failed")
	}
	s.Tuple.Proto = packet.IPProtocolUDP
	if v := sw.ProcessAt(4*time.Second, &s); v.FilterHit {
		t.Error("meter survived removal")
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

func TestRateLimitCapacityShared(t *testing.T) {
	sw := NewSwitch(Resources{Stages: 12, TCAMEntries: 100, ExactEntries: 2})
	a := netip.MustParseAddr("10.0.0.1")
	b := netip.MustParseAddr("10.0.0.2")
	c := netip.MustParseAddr("10.0.0.3")
	if err := sw.InstallFilter(FilterKey{DstIP: a}, ActionDrop); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallRateLimit(FilterKey{DstIP: b}, 1000, 1000); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallRateLimit(FilterKey{DstIP: c}, 1000, 1000); err == nil {
		t.Error("meters not counted against the exact-entry budget")
	}
}
