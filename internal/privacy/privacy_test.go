package privacy

import (
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

func mustAnon(t testing.TB) *Anonymizer {
	t.Helper()
	a, err := NewAnonymizer([]byte("campus-it-secret"))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnonymizerDeterministic(t *testing.T) {
	a1, _ := NewAnonymizer([]byte("key-A"))
	a2, _ := NewAnonymizer([]byte("key-A"))
	a3, _ := NewAnonymizer([]byte("key-B"))
	addr := netip.MustParseAddr("10.3.7.42")
	if a1.Anonymize(addr) != a2.Anonymize(addr) {
		t.Error("same key produced different mappings")
	}
	if a1.Anonymize(addr) == a3.Anonymize(addr) {
		t.Error("different keys produced identical mapping (astronomically unlikely)")
	}
	if a1.Anonymize(addr) == addr {
		t.Error("address mapped to itself (astronomically unlikely)")
	}
}

func TestAnonymizerPrefixPreserving(t *testing.T) {
	a := mustAnon(t)
	cases := []struct{ x, y string }{
		{"10.3.0.1", "10.3.0.2"},    // /30-ish neighbors
		{"10.3.0.1", "10.3.99.200"}, // same /16
		{"10.3.0.1", "10.200.0.1"},  // same /8
		{"10.3.0.1", "192.168.0.1"}, // different /8
		{"128.111.1.1", "128.111.255.254"},
	}
	for _, c := range cases {
		x, y := netip.MustParseAddr(c.x), netip.MustParseAddr(c.y)
		before := CommonPrefixLen(x, y)
		after := CommonPrefixLen(a.Anonymize(x), a.Anonymize(y))
		if before != after {
			t.Errorf("prefix not preserved for %s/%s: before=%d after=%d", c.x, c.y, before, after)
		}
	}
}

func TestAnonymizerPrefixPreservingProperty(t *testing.T) {
	a := mustAnon(t)
	fn := func(x, y [4]byte) bool {
		ax, ay := netip.AddrFrom4(x), netip.AddrFrom4(y)
		return CommonPrefixLen(ax, ay) == CommonPrefixLen(a.Anonymize(ax), a.Anonymize(ay))
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAnonymizerInjectiveProperty(t *testing.T) {
	a := mustAnon(t)
	seen := map[netip.Addr]netip.Addr{}
	fn := func(x [4]byte) bool {
		addr := netip.AddrFrom4(x)
		out := a.Anonymize(addr)
		if prev, ok := seen[out]; ok && prev != addr {
			return false // collision = not injective
		}
		seen[out] = addr
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAnonymizerIPv6(t *testing.T) {
	a := mustAnon(t)
	x := netip.MustParseAddr("2001:db8:aaaa::1")
	y := netip.MustParseAddr("2001:db8:aaaa::2")
	z := netip.MustParseAddr("2620:0:1::5")
	if CommonPrefixLen(a.Anonymize(x), a.Anonymize(y)) != CommonPrefixLen(x, y) {
		t.Error("ipv6 prefix not preserved (close pair)")
	}
	if CommonPrefixLen(a.Anonymize(x), a.Anonymize(z)) != CommonPrefixLen(x, z) {
		t.Error("ipv6 prefix not preserved (far pair)")
	}
	if a.Anonymize(x) == x {
		t.Error("ipv6 identity mapping")
	}
}

func TestAnonymizerCache(t *testing.T) {
	a := mustAnon(t)
	addr := netip.MustParseAddr("10.1.1.1")
	a.Anonymize(addr)
	a.Anonymize(addr)
	a.Anonymize(netip.MustParseAddr("10.1.1.2"))
	if a.cacheSize() != 2 {
		t.Errorf("cache size = %d, want 2", a.cacheSize())
	}
}

// TestAnonymizerCacheBound drives a flood-shaped address stream (mostly
// never-repeated IPv4 sources, some repeats, some IPv6) through anonymizers
// whose cache holds 1, 64 and every address: the bound may cost time,
// never output, and cacheSize never passes it.
func TestAnonymizerCacheBound(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	addrs := make([]netip.Addr, 10000)
	for i := range addrs {
		switch {
		case i > 0 && i%5 == 0:
			addrs[i] = addrs[rng.Intn(i)]
		case i%50 == 1:
			var b [16]byte
			rng.Read(b[:])
			b[0] = 0x20 // keep it out of the v4-mapped range
			addrs[i] = netip.AddrFrom16(b)
		default:
			var b [4]byte
			rng.Read(b[:])
			addrs[i] = netip.AddrFrom4(b)
		}
	}
	var want []netip.Addr
	for _, limit := range []int{math.MaxInt, 1, 64} {
		a := mustAnon(t)
		a.limit = limit
		got := make([]netip.Addr, len(addrs))
		for i, addr := range addrs {
			got[i] = a.Anonymize(addr)
			if n := a.cacheSize(); n < 1 || n > limit {
				t.Fatalf("limit %d: cache holds %d after %d addresses", limit, n, i+1)
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("limit %d: %v anonymized to %v, unbounded gave %v", limit, addrs[i], got[i], want[i])
			}
		}
	}
}

// TestAnonymizerDefaultBound: a fresh anonymizer is bounded, and reaching
// the bound starts the cache over instead of growing it.
func TestAnonymizerDefaultBound(t *testing.T) {
	a := mustAnon(t)
	if a.limit != maxCached {
		t.Fatalf("limit = %d, want %d", a.limit, maxCached)
	}
	for i := 0; i <= maxCached; i++ {
		a.Anonymize(netip.AddrFrom4([4]byte{11, byte(i >> 16), byte(i >> 8), byte(i)}))
	}
	if n := a.cacheSize(); n != 1 {
		t.Errorf("cache holds %d after %d distinct addresses, want 1", n, maxCached+1)
	}
}

// TestAnonymizerConcurrent: the cipher scratch and the clear-and-refill
// cache are shared state; concurrent callers with a tiny bound (so clears
// race with hits) must agree with a serial pass. Run under -race.
func TestAnonymizerConcurrent(t *testing.T) {
	serial, shared := mustAnon(t), mustAnon(t)
	shared.limit = 8
	addrs := make([]netip.Addr, 500)
	want := make([]netip.Addr, len(addrs))
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, byte(i % 23), byte(i)})
		if i%7 == 0 {
			addrs[i] = netip.AddrFrom16([16]byte{0x20, 1, 15: byte(i)})
		}
		want[i] = serial.Anonymize(addrs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range addrs {
				i := (k*(2*g+1) + g) % len(addrs) // a different order per goroutine
				if got := shared.Anonymize(addrs[i]); got != want[i] {
					t.Errorf("%v: concurrent %v, serial %v", addrs[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNewAnonymizerEmptySecret(t *testing.T) {
	if _, err := NewAnonymizer(nil); err == nil {
		t.Error("accepted empty secret")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		x, y string
		want int
	}{
		{"10.0.0.0", "10.0.0.0", 32},
		{"10.0.0.0", "10.0.0.1", 31},
		{"10.0.0.0", "138.0.0.0", 0},
		{"128.111.0.1", "128.111.128.0", 16},
	}
	for _, c := range cases {
		got := CommonPrefixLen(netip.MustParseAddr(c.x), netip.MustParseAddr(c.y))
		if got != c.want {
			t.Errorf("CommonPrefixLen(%s, %s) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

// genFrame builds a test TCP frame with payload.
func genFrame(t testing.TB, src, dst string, payload int) []byte {
	t.Helper()
	pl := make([]byte, payload)
	for i := range pl {
		pl[i] = byte(i)
	}
	return serializeFrame(t, pl,
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{TTL: 64, Protocol: packet.IPProtocolTCP,
			SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst)},
		&packet.TCP{SrcPort: 50000, DstPort: 443, Flags: packet.TCPAck | packet.TCPPsh},
	)
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

func TestEnforcerAnonymizesInternalOnly(t *testing.T) {
	pol := Policy{
		Name: "internal-only", Scope: AnonInternal,
		CampusPrefix: netip.MustParsePrefix("10.0.0.0/8"),
	}
	e, err := NewEnforcer(pol, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	frame := genFrame(t, "10.3.0.7", "151.101.1.1", 100)
	out, err := e.Apply(frame)
	if err != nil {
		t.Fatal(err)
	}
	var s packet.Summary
	if err := packet.NewFlowParser().Parse(out, &s); err != nil {
		t.Fatal(err)
	}
	ip := s.Tuple
	if ip.SrcIP == netip.MustParseAddr("10.3.0.7") {
		t.Error("internal source not anonymized")
	}
	if ip.DstIP != netip.MustParseAddr("151.101.1.1") {
		t.Errorf("external destination modified: %v", ip.DstIP)
	}
	// Original frame untouched.
	var orig packet.Summary
	if err := packet.NewFlowParser().Parse(frame, &orig); err != nil || orig.Tuple.SrcIP != netip.MustParseAddr("10.3.0.7") {
		t.Error("Apply mutated its input")
	}
}

func TestEnforcerChecksumStillValid(t *testing.T) {
	pol := Policy{Scope: AnonAll}
	e, _ := NewEnforcer(pol, []byte("secret"))
	out, err := e.Apply(genFrame(t, "10.1.2.3", "10.4.5.6", 64))
	if err != nil {
		t.Fatal(err)
	}
	// Re-parse: the parser does not verify checksums, so verify by hand.
	var s packet.Summary
	if err := packet.NewFlowParser().Parse(out, &s); err != nil {
		t.Fatal(err)
	}
	// Recompute over the header (IHL words long); must be zero.
	hdr := out[14 : 14+int(out[14]&0x0f)*4]
	var sum uint32
	for i := 0; i < len(hdr); i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	if ^uint16(sum) != 0 {
		t.Errorf("ipv4 checksum invalid after rewrite: %#x", ^uint16(sum))
	}
}

func TestEnforcerPayloadStrip(t *testing.T) {
	pol := Policy{Payload: PayloadStrip}
	e, _ := NewEnforcer(pol, []byte("secret"))
	frame := genFrame(t, "10.1.2.3", "93.184.216.34", 500)
	out, err := e.Apply(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(frame)-500 {
		t.Errorf("stripped frame len = %d, want %d", len(out), len(frame)-500)
	}
	_, bytesIn, bytesOut := e.Stats()
	if bytesOut >= bytesIn {
		t.Error("strip policy did not reduce stored bytes")
	}
}

func TestEnforcerPayloadHash(t *testing.T) {
	pol := Policy{Payload: payloadHash}
	e, _ := NewEnforcer(pol, []byte("secret"))
	frameA := genFrame(t, "10.1.2.3", "93.184.216.34", 500)
	outA1, _ := e.Apply(frameA)
	outA2, _ := e.Apply(frameA)
	if len(outA1) != len(frameA)-500+8 {
		t.Errorf("hashed frame len = %d", len(outA1))
	}
	if string(outA1) != string(outA2) {
		t.Error("hashing not deterministic")
	}
}

func TestEnforcerKeepsDNS(t *testing.T) {
	pol := Policy{Payload: PayloadStrip}
	e, _ := NewEnforcer(pol, []byte("secret"))
	d := &packet.DNS{ID: 5, Questions: []packet.DNSQuestion{{Name: "x.edu", Type: packet.DNSTypeA, Class: 1}}}
	frame := serializeFrame(t, nil,
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{TTL: 64, Protocol: packet.IPProtocolUDP,
			SrcIP: netip.MustParseAddr("10.1.1.1"), DstIP: netip.MustParseAddr("8.8.8.8")},
		&packet.UDP{SrcPort: 5353, DstPort: 53},
		d,
	)
	out, err := e.Apply(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(frame) {
		t.Error("DNS payload was stripped; should be kept as metadata")
	}
}

func TestEnforcerRequiresCampusPrefix(t *testing.T) {
	if _, err := NewEnforcer(Policy{Scope: AnonInternal}, []byte("s")); err == nil {
		t.Error("accepted AnonInternal without CampusPrefix")
	}
}

func TestEnforcerOnGeneratedTraffic(t *testing.T) {
	// Run a whole campus scenario through the enforcer: everything must
	// parse, internal prefixes must stay inside the anonymized campus
	// prefix structure (prefix preservation implies the campus /8 maps
	// to a single /8).
	pol := Policy{Scope: AnonAll}
	e, _ := NewEnforcer(pol, []byte("it-org-key"))
	g := traffic.NewCampus(traffic.Profile{FlowsPerSecond: 50, Duration: time.Second, Seed: 3})
	fp := packet.NewFlowParser()
	var f traffic.Frame
	var s packet.Summary
	campusAnon := map[byte]bool{}
	n := 0
	for g.Next(&f) {
		out, err := e.Apply(f.Data)
		if err != nil {
			t.Fatal(err)
		}
		if err := fp.Parse(out, &s); err != nil {
			t.Fatalf("anonymized frame does not parse: %v", err)
		}
		if s.Tuple.SrcIP.As4()[0] == 10 || s.Tuple.DstIP.As4()[0] == 10 {
			// The campus 10/8 must not survive anonymization...
			// unless the cipher mapped the first octet to itself,
			// which prefix preservation makes consistent. Track it.
			campusAnon[10] = true
		}
		n++
	}
	if n == 0 {
		t.Fatal("no frames")
	}
	// Consistency: original 10/8 hosts all map under one anonymized /8.
	a := e.anon
	first := a.Anonymize(netip.MustParseAddr("10.0.0.1")).As4()[0]
	for _, h := range []string{"10.1.2.3", "10.7.7.7", "10.200.1.1"} {
		if got := a.Anonymize(netip.MustParseAddr(h)).As4()[0]; got != first {
			t.Errorf("campus /8 fragmented: %s -> first octet %d, want %d", h, got, first)
		}
	}
}

func TestPolicyModeStrings(t *testing.T) {
	if payloadHash.String() != "hash" || AnonInternal.String() != "internal" {
		t.Error("mode strings wrong")
	}
	if !strings.HasPrefix(PayloadMode(9).String(), "mode-") {
		t.Error("unknown mode string")
	}
}

func BenchmarkAnonymizeCold(b *testing.B) {
	a, _ := NewAnonymizer([]byte("bench"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		a.Anonymize(addr)
	}
}

func BenchmarkAnonymizeWarm(b *testing.B) {
	a, _ := NewAnonymizer([]byte("bench"))
	addr := netip.MustParseAddr("10.1.2.3")
	a.Anonymize(addr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Anonymize(addr)
	}
}

func BenchmarkEnforcerApply(b *testing.B) {
	pol := Policy{Scope: AnonAll, Payload: PayloadStrip}
	e, _ := NewEnforcer(pol, []byte("bench"))
	frame := genFrame(b, "10.1.2.3", "93.184.216.34", 1000)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		if _, err := e.Apply(frame); err != nil {
			b.Fatal(err)
		}
	}
}
