package datastore

import (
	"fmt"
	"net/netip"
	"sort"
	"testing"
	"time"

	"campuslab/internal/eventlog"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// betweenWin is the window [from, to) with the range helpers' sentinels:
// from <= 0 starts at the oldest packet and a negative `to` is unbounded.
func betweenWin(from, to time.Duration) tsWin {
	return tsWin{from: from, to: to, hasFrom: from > 0, hasTo: to >= 0}
}

// packetsBetween returns the packets in betweenWin(from, to) in time order,
// through the store's windowed walk.
func (s *Store) packetsBetween(from, to time.Duration) []StoredPacket {
	var out []StoredPacket
	s.scanRange(betweenWin(from, to), func(sp *StoredPacket) bool {
		out = append(out, *sp)
		return true
	})
	return out
}

// eventsBetween returns the stored sensor events in [from, to).
func (s *Store) eventsBetween(from, to time.Duration) []eventlog.Event {
	s.eventsMu.RLock()
	defer s.eventsMu.RUnlock()
	lo := sort.Search(len(s.events), func(i int) bool { return s.events[i].TS >= from })
	hi := sort.Search(len(s.events), func(i int) bool { return s.events[i].TS >= to })
	return append([]eventlog.Event(nil), s.events[lo:hi]...)
}

// fillFrames is a small deterministic scenario: benign campus traffic
// plus a DNS amplification episode.
func fillFrames(t testing.TB) []traffic.Frame {
	t.Helper()
	plan := traffic.DefaultPlan(50)
	benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 80, Duration: 4 * time.Second, Seed: 21})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(5),
		Start: time.Second, Duration: 2 * time.Second, Rate: 400, Seed: 22,
	})
	return traffic.Collect(traffic.NewMerge(benign, amp), 0)
}

// fillStore ingests fillFrames one frame at a time.
func fillStore(t testing.TB) *Store {
	t.Helper()
	st := New()
	for _, f := range fillFrames(t) {
		st.IngestFrame(&f)
	}
	return st
}

func TestIngestAndStats(t *testing.T) {
	st := fillStore(t)
	stats := st.Stats()
	if stats.Packets == 0 || stats.Flows == 0 || stats.DataBytes == 0 {
		t.Fatalf("empty stats: %+v", stats)
	}
	if stats.Span <= 0 || stats.Span > 5*time.Second {
		t.Errorf("span = %v", stats.Span)
	}
	if stats.BytesPerSecond() <= 0 {
		t.Error("no accrual rate")
	}
}

// serializeFrame writes payload and then layers (listed outermost first)
// back to front the way the traffic generator does, arming an IPv4 layer's
// addresses for the transport checksum.
func serializeFrame(t testing.TB, payload []byte, layers ...interface {
	SerializeTo(*packet.SerializeBuffer) error
}) []byte {
	t.Helper()
	buf := packet.NewSerializeBuffer()
	p, _ := buf.PrependBytes(len(payload))
	copy(p, payload)
	for _, l := range layers {
		if ip, ok := l.(*packet.IPv4); ok {
			buf.SetNetworkLayerForChecksum(ip.SrcIP, ip.DstIP)
		}
	}
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(buf); err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), buf.Bytes()...)
}

func TestFlowAggregation(t *testing.T) {
	st := New()
	// Two packets, same flow, opposite directions.
	mk := func(src, dst string, sport, dport uint16, flags packet.TCPFlags) []byte {
		return serializeFrame(t, nil,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{TTL: 64, Protocol: packet.IPProtocolTCP,
				SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst)},
			&packet.TCP{SrcPort: sport, DstPort: dport, Flags: flags},
		)
	}
	st.IngestFrame(&traffic.Frame{Data: mk("10.0.0.1", "93.184.216.34", 5000, 443, packet.TCPSyn)})
	st.IngestFrame(&traffic.Frame{TS: time.Millisecond, Data: mk("93.184.216.34", "10.0.0.1", 443, 5000, packet.TCPSyn|packet.TCPAck)})
	key := packet.FiveTuple{
		Proto: packet.IPProtocolTCP,
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("93.184.216.34"),
		SrcPort: 5000, DstPort: 443,
	}
	fm, ok := st.Flow(key)
	if !ok {
		t.Fatal("flow not found")
	}
	if fm.Packets != 2 {
		t.Errorf("flow packets = %d, want 2 (bidirectional)", fm.Packets)
	}
	if !fm.TCPFlags.Has(packet.TCPSyn | packet.TCPAck) {
		t.Errorf("flags = %v", fm.TCPFlags)
	}
	if n := st.Count(flowFilter(t, key)); n != 2 {
		t.Errorf("flow's 5-tuple selects %d packets, want 2", n)
	}
	// Lookup by reverse tuple finds the same flow.
	reverse := packet.FiveTuple{Proto: key.Proto, SrcIP: key.DstIP, DstIP: key.SrcIP, SrcPort: key.DstPort, DstPort: key.SrcPort}
	if _, ok := st.Flow(reverse); !ok {
		t.Error("reverse lookup failed")
	}
}

func TestGroundTruthLabels(t *testing.T) {
	st := fillStore(t)
	counts := st.LabelCounts()
	if counts[traffic.LabelDNSAmp] == 0 {
		t.Fatal("no dns-amp flows labeled")
	}
	if counts[traffic.LabelBenign] == 0 {
		t.Fatal("no benign flows")
	}
	for _, fm := range st.Flows() {
		if fm.Label != traffic.LabelDNSAmp {
			continue
		}
		if !fm.Labeled {
			t.Error("attack flow not marked labeled")
		}
		if fm.DNSResponses == 0 {
			t.Error("dns-amp flow has no DNS responses")
		}
	}
}

func TestLabelFlowErrors(t *testing.T) {
	st := New()
	err := st.LabelFlow(packet.FiveTuple{Proto: packet.IPProtocolTCP}, traffic.LabelBeacon)
	if err == nil {
		t.Error("labeled a nonexistent flow")
	}
}

func TestPacketLookup(t *testing.T) {
	st := fillStore(t)
	sp, ok := st.packetByID(0)
	if !ok || sp.ID != 0 {
		t.Fatal("packet 0 not found")
	}
	if _, ok := st.packetByID(PacketID(1 << 40)); ok {
		t.Error("found nonexistent packet")
	}
}

func TestEventsIntegration(t *testing.T) {
	st := New()
	evs := eventlog.NewGenerator(eventlog.GeneratorConfig{Rate: 10, Seed: 3}).Generate(10 * time.Second)
	st.AddEvents(evs)
	got := st.eventsBetween(2*time.Second, 4*time.Second)
	for _, e := range got {
		if e.TS < 2*time.Second || e.TS >= 4*time.Second {
			t.Fatalf("event at %v outside window", e.TS)
		}
	}
	if len(got) == 0 {
		t.Error("no events in window")
	}
	if st.Stats().Events != uint64(len(evs)) {
		t.Error("event count wrong")
	}
}

func TestEvictBefore(t *testing.T) {
	st := fillStore(t)
	before := st.Stats()
	evicted := st.EvictBefore(2 * time.Second)
	if evicted == 0 {
		t.Fatal("nothing evicted")
	}
	after := st.Stats()
	if after.Packets != before.Packets-uint64(evicted) {
		t.Errorf("packets = %d, want %d", after.Packets, before.Packets-uint64(evicted))
	}
	if after.DataBytes >= before.DataBytes {
		t.Error("data bytes did not shrink")
	}
	// All remaining packets at or after the cut.
	st.Scan(func(sp *StoredPacket) bool {
		if sp.TS < 2*time.Second {
			t.Errorf("packet at %v survived eviction", sp.TS)
			return false
		}
		return true
	})
	if st.EvictBefore(0) != 0 {
		t.Error("evicting before 0 removed packets")
	}
}

func TestFilterLanguage(t *testing.T) {
	st := fillStore(t)
	cases := []struct {
		expr  string
		check func(*StoredPacket) bool
	}{
		{"proto == udp", func(sp *StoredPacket) bool { return sp.Summary.Tuple.Proto == packet.IPProtocolUDP }},
		{"dns && dns.resp", func(sp *StoredPacket) bool { return sp.Summary.IsDNS && sp.Summary.DNSResponse }},
		{"dns.qtype == ANY", func(sp *StoredPacket) bool { return sp.Summary.DNSQueryType == packet.DNSTypeANY }},
		{"len > 1000", func(sp *StoredPacket) bool { return sp.Summary.WireLen > 1000 }},
		{"tcp.syn && !tcp.ack", func(sp *StoredPacket) bool {
			return sp.Summary.HasTCP && sp.Summary.TCPFlags.Has(packet.TCPSyn) && !sp.Summary.TCPFlags.Has(packet.TCPAck)
		}},
		{"src.ip in 10.0.0.0/8", func(sp *StoredPacket) bool {
			return netip.MustParsePrefix("10.0.0.0/8").Contains(sp.Summary.Tuple.SrcIP)
		}},
		{"dst.port == 53 || src.port == 53", func(sp *StoredPacket) bool {
			return sp.Summary.Tuple.DstPort == 53 || sp.Summary.Tuple.SrcPort == 53
		}},
	}
	for _, c := range cases {
		t.Run(c.expr, func(t *testing.T) {
			got, err := st.SelectExpr(c.expr, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				t.Fatalf("no matches for %q in the test scenario", c.expr)
			}
			for i := range got {
				if !c.check(&got[i]) {
					t.Fatalf("false positive for %q: %+v", c.expr, got[i].Summary)
				}
			}
			// Exhaustiveness: manual count equals Count().
			want := 0
			st.Scan(func(sp *StoredPacket) bool {
				if c.check(sp) {
					want++
				}
				return true
			})
			f := MustFilter(c.expr)
			if n := st.Count(f); n != want {
				t.Errorf("Count = %d, want %d", n, want)
			}
		})
	}
}

func TestFilterTimeBoundsUsed(t *testing.T) {
	st := fillStore(t)
	f := MustFilter("ts >= 1s && ts < 2s && udp")
	for _, sp := range st.Select(f, 0) {
		if sp.TS < time.Second || sp.TS >= 2*time.Second+time.Nanosecond {
			t.Fatalf("packet at %v outside bounds", sp.TS)
		}
	}
}

func TestFilterParseErrors(t *testing.T) {
	bad := []string{
		"", "proto ==", "len > abc", "bogusfield == 3", "proto == udp &&",
		"(proto == udp", "src.ip in notacidr", "ts > 5s trailing",
		"dns.qtype == NOPE", "proto < tcp",
	}
	for _, expr := range bad {
		if _, err := ParseFilter(expr); err == nil {
			t.Errorf("accepted %q", expr)
		}
	}
}

func TestFilterLimit(t *testing.T) {
	st := fillStore(t)
	got, err := st.SelectExpr("ip", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Errorf("limit ignored: %d", len(got))
	}
}

func TestSelectExprBadFilter(t *testing.T) {
	st := New()
	if _, err := st.SelectExpr("bogus ==", 0); err == nil {
		t.Error("bad expression accepted")
	}
}

func TestPacketsBetween(t *testing.T) {
	st := fillStore(t)
	got := st.packetsBetween(time.Second, 2*time.Second)
	if len(got) == 0 {
		t.Fatal("no packets in window")
	}
	for i := range got {
		if got[i].TS < time.Second || got[i].TS >= 2*time.Second {
			t.Fatal("packet outside window")
		}
	}
	// Windows partition the stream.
	a := len(st.packetsBetween(0, 2*time.Second))
	b := len(st.packetsBetween(2*time.Second, 100*time.Second))
	if uint64(a+b) != st.Stats().Packets {
		t.Errorf("window partition %d+%d != %d", a, b, st.Stats().Packets)
	}
}

func TestIngestClampsReordering(t *testing.T) {
	st := New()
	data := make([]byte, 60)
	st.IngestFrame(&traffic.Frame{TS: 5 * time.Second, Data: data})
	st.IngestFrame(&traffic.Frame{TS: 3 * time.Second, Data: data}) // out of order: clamped to 5s
	pkts := st.packetsBetween(0, 100*time.Second)
	if len(pkts) != 2 || pkts[1].TS < pkts[0].TS {
		t.Error("time index corrupted by reordered ingest")
	}
}

func BenchmarkIngest(b *testing.B) {
	g := traffic.NewCampus(traffic.Profile{FlowsPerSecond: 1000, Duration: time.Hour, Seed: 1})
	frames := traffic.Collect(g, 10000)
	st := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &frames[i%len(frames)]
		st.IngestFrame(&traffic.Frame{TS: time.Duration(i), Data: f.Data})
	}
}

func BenchmarkSelectIndexed(b *testing.B) {
	st := fillStore(b)
	f := MustFilter(fmt.Sprintf("ts >= %s && ts < %s && dns", "1s", "1100ms"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Select(f, 0)
	}
}

func BenchmarkSelectFullScan(b *testing.B) {
	st := fillStore(b)
	f := MustFilter("dns && dns.qtype == ANY")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Select(f, 0)
	}
}

// TestDroppedFlowsReturnIndexBytes: a flow charges flowIndexBytes while a
// shard holds it, and eviction gives the charge back with the flow — a
// store evicted past its last packet holds no index bytes at all.
func TestDroppedFlowsReturnIndexBytes(t *testing.T) {
	s := NewSharded(4)
	if _, err := s.AddBatch(equivFrames(t), 2); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flows == 0 || st.IndexBytes < flowIndexBytes*st.Flows {
		t.Fatalf("ingest charged %d index bytes for %d flows", st.IndexBytes, st.Flows)
	}
	s.EvictBefore(time.Hour)
	if st := s.Stats(); st.Packets != 0 || st.Flows != 0 || st.IndexBytes != 0 {
		t.Fatalf("after evicting everything: %d packets, %d flows, %d index bytes; want all 0", st.Packets, st.Flows, st.IndexBytes)
	}
}
