package telemetry

import (
	"net/netip"
	"testing"
	"time"

	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

func TestHeavyHittersFindsElephants(t *testing.T) {
	h, err := NewHeavyHitters(10)
	if err != nil {
		t.Fatal(err)
	}
	// Two elephants among many mice.
	for i := 0; i < 10000; i++ {
		h.Add(1, 1)
		if i%2 == 0 {
			h.Add(2, 1)
		}
		h.Add(uint64(100+i%500), 1) // mice
	}
	top := h.Top(2)
	if len(top) != 2 || top[0].Key != 1 || top[1].Key != 2 {
		t.Errorf("top = %+v", top)
	}
	// Space-saving guarantee: reported count >= true count.
	if top[0].Count < 10000 {
		t.Errorf("elephant undercounted: %d", top[0].Count)
	}
}

func TestHeavyHittersCapacityBounded(t *testing.T) {
	h, _ := NewHeavyHitters(5)
	for i := uint64(0); i < 1000; i++ {
		h.Add(i, 1)
	}
	if got := len(h.Top(100)); got > 5 {
		t.Errorf("tracker grew to %d entries", got)
	}
	if _, err := NewHeavyHitters(0); err == nil {
		t.Error("accepted zero capacity")
	}
}

func TestSampledExporterAggregation(t *testing.T) {
	e, err := NewSampledExporter(1, 0) // sample everything
	if err != nil {
		t.Fatal(err)
	}
	tuple := packet.FiveTuple{
		Proto: packet.IPProtocolTCP,
		SrcIP: ip("10.0.0.1"), DstIP: ip("10.0.0.2"),
		SrcPort: 1000, DstPort: 443,
	}
	s := packet.Summary{Tuple: tuple, WireLen: 100, TCPFlags: packet.TCPSyn}
	e.Observe(0, &s)
	s.TCPFlags = packet.TCPAck
	s.Tuple = packet.FiveTuple{ // opposite direction, same flow
		Proto: packet.IPProtocolTCP,
		SrcIP: ip("10.0.0.2"), DstIP: ip("10.0.0.1"),
		SrcPort: 443, DstPort: 1000,
	}
	e.Observe(time.Millisecond, &s)
	recs := e.Flush()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1 (bidirectional aggregation)", len(recs))
	}
	r := recs[0]
	if r.Packets != 2 || r.Bytes != 200 {
		t.Errorf("packets/bytes = %d/%d", r.Packets, r.Bytes)
	}
	if !r.TCPFlags.Has(packet.TCPSyn | packet.TCPAck) {
		t.Errorf("flags = %v", r.TCPFlags)
	}
}

func TestSampledExporterSamplesOneInN(t *testing.T) {
	e, _ := NewSampledExporter(10, 0)
	s := packet.Summary{
		Tuple: packet.FiveTuple{
			Proto: packet.IPProtocolUDP,
			SrcIP: ip("10.0.0.1"), DstIP: ip("8.8.8.8"), SrcPort: 5, DstPort: 53,
		},
		WireLen: 100,
	}
	for i := 0; i < 1000; i++ {
		e.Observe(time.Duration(i)*time.Millisecond, &s)
	}
	recs := e.Flush()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Packets != 100 {
		t.Errorf("sampled packets = %d, want 100 (1-in-10 of 1000)", recs[0].Packets)
	}
}

func TestSampledExporterIdleTimeoutSplitsFlows(t *testing.T) {
	e, _ := NewSampledExporter(1, time.Second)
	s := packet.Summary{
		Tuple: packet.FiveTuple{
			Proto: packet.IPProtocolUDP,
			SrcIP: ip("10.0.0.1"), DstIP: ip("8.8.8.8"), SrcPort: 5, DstPort: 53,
		},
		WireLen: 50,
	}
	e.Observe(0, &s)
	e.Observe(100*time.Millisecond, &s)
	e.Observe(10*time.Second, &s) // > idle gap
	recs := e.Flush()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (idle split)", len(recs))
	}
}

func TestSampledExporterValidation(t *testing.T) {
	if _, err := NewSampledExporter(0, 0); err == nil {
		t.Error("accepted zero rate")
	}
}

func TestSamplingLosesSmallFlows(t *testing.T) {
	// The E10 premise: 1-in-100 sampling misses most mice flows entirely
	// while full capture sees them all.
	gen := traffic.NewCampus(traffic.Profile{FlowsPerSecond: 200, Duration: 2 * time.Second, Seed: 5})
	full, _ := NewSampledExporter(1, 0)
	sampled, _ := NewSampledExporter(100, 0)
	fp := packet.NewFlowParser()
	var f traffic.Frame
	var s packet.Summary
	for gen.Next(&f) {
		if err := fp.Parse(f.Data, &s); err != nil {
			continue
		}
		full.Observe(f.TS, &s)
		sampled.Observe(f.TS, &s)
	}
	nf, ns := len(full.Flush()), len(sampled.Flush())
	if ns*2 >= nf {
		t.Errorf("sampling saw %d flows vs %d full — expected to miss most", ns, nf)
	}
}

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }
