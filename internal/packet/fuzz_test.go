package packet_test

import (
	"bytes"
	"testing"
	"time"

	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// fuzzSeeds returns a mix of realistic frames (from the deterministic
// traffic generators, so the corpus exercises real Ethernet/IPv4/IPv6/
// TCP/UDP/DNS layouts) plus truncations and a few hand-built degenerate
// frames.
func fuzzSeeds() [][]byte {
	plan := traffic.DefaultPlan(20)
	var seeds [][]byte
	add := func(g traffic.Generator, n int) {
		var f traffic.Frame
		for i := 0; i < n; i++ {
			if !g.Next(&f) {
				return
			}
			seeds = append(seeds, append([]byte(nil), f.Data...))
		}
	}
	add(traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 40, Duration: time.Second, Seed: 11}), 32)
	add(traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(3),
		Duration: time.Second, Rate: 50, Seed: 12,
	}), 16)

	// Truncations of a real frame stress every length check.
	if len(seeds) > 0 {
		full := seeds[0]
		for _, n := range []int{0, 1, 13, 14, 20, 33, 34, 41, 42, 54} {
			if n <= len(full) {
				seeds = append(seeds, full[:n])
			}
		}
	}
	seeds = append(seeds,
		[]byte{},
		bytes.Repeat([]byte{0xff}, 64),
		bytes.Repeat([]byte{0x00}, 64),
	)
	return seeds
}

// FuzzParse drives the allocation-free fast-path decoder with arbitrary
// frames. The parser sits directly behind capture ingest, so it must
// never panic and must keep its documented invariants on any input.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		fp := packet.NewFlowParser()
		var s packet.Summary
		err := fp.Parse(frame, &s)

		// WireLen records the frame length whether or not parsing succeeds.
		if s.WireLen != len(frame) {
			t.Fatalf("WireLen = %d, frame length %d", s.WireLen, len(frame))
		}
		if err != nil {
			return
		}
		// Transport flags are mutually exclusive and imply HasIP.
		set := 0
		for _, b := range []bool{s.HasTCP, s.HasUDP, s.HasICMP} {
			if b {
				set++
			}
		}
		if set > 1 {
			t.Fatalf("multiple transport flags set: %+v", s)
		}
		if set == 1 && !s.HasIP {
			t.Fatalf("transport without IP: %+v", s)
		}
		if s.HasTCP && s.Tuple.Proto != packet.IPProtocolTCP {
			t.Fatalf("HasTCP but proto %v", s.Tuple.Proto)
		}
		if s.HasUDP && s.Tuple.Proto != packet.IPProtocolUDP {
			t.Fatalf("HasUDP but proto %v", s.Tuple.Proto)
		}
		if s.IsDNS && !s.HasUDP {
			t.Fatalf("DNS quick-look without UDP: %+v", s)
		}
		if s.PayloadLen < 0 || s.IPLen < 0 || s.DNSMsgLen < 0 {
			t.Fatalf("negative length: %+v", s)
		}
		// A non-first IPv4 fragment carries no transport header.
		var eth packet.Ethernet
		var ip packet.IPv4
		if set > 0 && eth.DecodeFromBytes(frame) == nil && eth.EtherType == packet.EtherTypeIPv4 &&
			ip.DecodeFromBytes(frame[14:]) == nil && ip.FragOffset > 0 {
			t.Fatalf("fragment at offset %d has a transport flag: %+v", ip.FragOffset, s)
		}

		// Parsing is deterministic: a reused parser yields the same summary.
		var s2 packet.Summary
		if err2 := fp.Parse(frame, &s2); err2 != nil {
			t.Fatalf("reparse failed: %v", err2)
		}
		if s != s2 {
			t.Fatalf("reparse diverged:\n%+v\n%+v", s, s2)
		}
	})
}

// FuzzDecode drives the layer decoders FlowParser is built on — the
// reference the serializer round trips are checked against — with the same
// corpus: none may panic, and on every IPv4 frame FlowParser summarizes,
// the decoded headers must agree with its summary. (The DNS reference
// decoder, which no program calls, is TestDecodeFuzzNoPanic's.)
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var (
			eth packet.Ethernet
			ip  packet.IPv4
			tcp packet.TCP
			udp packet.UDP
			s   packet.Summary
		)
		for _, decode := range []func([]byte) error{eth.DecodeFromBytes, ip.DecodeFromBytes,
			tcp.DecodeFromBytes, udp.DecodeFromBytes} {
			_ = decode(frame)
		}
		if packet.NewFlowParser().Parse(frame, &s) != nil || eth.DecodeFromBytes(frame) != nil ||
			eth.EtherType != packet.EtherTypeIPv4 {
			return
		}
		if err := ip.DecodeFromBytes(frame[14:]); err != nil {
			t.Fatalf("FlowParser summarized an IPv4 header the decoder refuses: %v", err)
		}
		if ip.SrcIP != s.Tuple.SrcIP || ip.DstIP != s.Tuple.DstIP || ip.TTL != s.TTL ||
			ip.Protocol != s.Tuple.Proto || int(ip.Length) != s.IPLen {
			t.Fatalf("ipv4 %+v disagrees with summary %+v", ip, s)
		}
		l4 := frame[14+20+len(ip.Options):]
		switch {
		case s.HasTCP:
			if err := tcp.DecodeFromBytes(l4); err != nil || tcp.SrcPort != s.Tuple.SrcPort ||
				tcp.DstPort != s.Tuple.DstPort || tcp.Flags != s.TCPFlags {
				t.Fatalf("tcp %+v (%v) disagrees with summary %+v", tcp, err, s)
			}
		case s.HasUDP:
			if err := udp.DecodeFromBytes(l4); err != nil || udp.SrcPort != s.Tuple.SrcPort ||
				udp.DstPort != s.Tuple.DstPort {
				t.Fatalf("udp %+v (%v) disagrees with summary %+v", udp, err, s)
			}
		}
	})
}
