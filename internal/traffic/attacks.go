package traffic

import (
	"net/netip"
	"time"

	"campuslab/internal/packet"
)

// AttackConfig parameterizes one attack episode overlaid on benign traffic.
type AttackConfig struct {
	// Kind selects the attack class (LabelDNSAmp, LabelSYNFlood,
	// LabelPortScan or LabelBeacon).
	Kind Label
	// Start and Duration bound the episode.
	Start    time.Duration
	Duration time.Duration
	// Victim is the targeted campus host (DNSAmp, SYNFlood) or the
	// infected campus host (Beacon). Zero value picks plan host 0.
	Victim netip.Addr
	// Rate is packets/second for volumetric attacks, probes/second for
	// scans, and beacons/hour for beaconing.
	Rate float64
	// Seed makes the attack reproducible.
	Seed int64
	// Plan must match the benign generator's plan.
	Plan *AddressPlan
}

func (c AttackConfig) withDefaults() AttackConfig {
	if c.Plan == nil {
		c.Plan = DefaultPlan(200)
	}
	if !c.Victim.IsValid() {
		c.Victim = c.Plan.Host(0)
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.Rate <= 0 {
		switch c.Kind {
		case LabelDNSAmp:
			c.Rate = 5000
		case LabelSYNFlood:
			c.Rate = 10000
		case LabelPortScan:
			c.Rate = 300
		case LabelBeacon:
			c.Rate = 120 // beacons/hour => one every 30s
		}
	}
	return c
}

// NewAttack returns a generator for the configured attack episode.
func NewAttack(c AttackConfig) Generator {
	c = c.withDefaults()
	rng := newPRNG(c.Seed)
	fb := newFrameBuilder()
	switch c.Kind {
	case LabelDNSAmp:
		return &dnsAmpAttack{cfg: c, rng: rng, fb: fb, at: c.Start}
	case LabelSYNFlood:
		return &synFloodAttack{cfg: c, rng: rng, fb: fb, at: c.Start}
	case LabelPortScan:
		return &portScanAttack{cfg: c, rng: rng, fb: fb, at: c.Start,
			scanner: netip.AddrFrom4([4]byte{185, 220, 101, byte(1 + rng.intn(200))})}
	case LabelBeacon:
		return &beaconAttack{cfg: c, rng: rng, fb: fb, at: c.Start,
			cnc: netip.AddrFrom4([4]byte{45, 155, 205, byte(1 + rng.intn(200))})}
	default:
		panic("traffic: unknown attack kind " + c.Kind.String())
	}
}

// dnsAmpAttack models a DNS amplification (reflection) attack: the campus
// victim receives a torrent of large DNS responses from abused open
// resolvers, answers to ANY queries it never sent. This is the §2 example
// event ("a DDoS attack in the form of a DNS amplification attack").
type dnsAmpAttack struct {
	cfg  AttackConfig
	rng  *prng
	fb   *frameBuilder
	at   time.Duration
	fid  uint64
	resp packet.DNS
}

// amplifiedDomains are the zones attackers typically abuse (large TXT/ANY
// answers).
var amplifiedDomains = []string{"isc.org", "ripe.net", "cmu.edu", "verisign.com"}

func (a *dnsAmpAttack) Next(f *Frame) bool {
	end := a.cfg.Start + a.cfg.Duration
	if a.at >= end {
		return false
	}
	resolver := a.cfg.Plan.OpenResolver[a.rng.intn(len(a.cfg.Plan.OpenResolver))]
	name := amplifiedDomains[a.rng.intn(len(amplifiedDomains))]
	// Amplified responses: mostly ANY, but real attacks also abuse bulky
	// TXT/DNSSEC records, and record counts vary — the attack is not a
	// single clean signature.
	qtype := packet.DNSTypeANY
	if a.rng.bool(0.3) {
		qtype = packet.DNSTypeTXT
	}
	nrec := 2 + a.rng.intn(7)
	ans := make([]packet.DNSResourceRecord, nrec)
	for i := range ans {
		blob := make([]byte, 100+a.rng.intn(160))
		ans[i] = packet.DNSResourceRecord{Name: name, Type: packet.DNSTypeTXT, Class: 1, TTL: 3600, Data: blob}
	}
	a.resp = packet.DNS{
		ID: uint16(a.rng.Uint64()), QR: true, RA: true,
		Questions: []packet.DNSQuestion{{Name: name, Type: qtype, Class: 1}},
		Answers:   ans,
	}
	a.fid++
	f.TS = a.at
	f.Data = a.fb.dnsFrame(resolver, a.cfg.Victim, packet.PortDNS, uint16(1024+a.rng.intn(60000)), &a.resp)
	f.Dir = DirInbound
	f.Label = LabelDNSAmp
	f.Actor = true
	f.FlowID = 1<<40 | a.fid
	a.at += time.Duration(a.rng.exp(float64(time.Second) / a.cfg.Rate))
	return true
}

// synFloodAttack sends spoofed SYNs to one campus server from random
// sources.
type synFloodAttack struct {
	cfg AttackConfig
	rng *prng
	fb  *frameBuilder
	at  time.Duration
	fid uint64
}

func (a *synFloodAttack) Next(f *Frame) bool {
	end := a.cfg.Start + a.cfg.Duration
	if a.at >= end {
		return false
	}
	src := netip.AddrFrom4([4]byte{
		byte(1 + a.rng.intn(220)), byte(a.rng.intn(256)),
		byte(a.rng.intn(256)), byte(1 + a.rng.intn(254)),
	})
	a.fid++
	f.TS = a.at
	f.Data = a.fb.tcpFrame(src, a.cfg.Victim, uint16(1024+a.rng.intn(60000)), packet.PortHTTPS,
		packet.TCPSyn, uint32(a.rng.Uint64()), 0, 0)
	f.Dir = DirInbound
	f.Label = LabelSYNFlood
	f.Actor = true
	f.FlowID = 2<<40 | a.fid
	a.at += time.Duration(a.rng.exp(float64(time.Second) / a.cfg.Rate))
	return true
}

// portScanAttack sweeps ports across campus hosts from one external
// scanner, eliciting occasional RSTs.
type portScanAttack struct {
	cfg     AttackConfig
	rng     *prng
	fb      *frameBuilder
	at      time.Duration
	fid     uint64
	scanner netip.Addr
	// pending RST reply, emitted right after the probe that caused it
	rstTo   netip.Addr
	rstPort uint16
	rstAt   time.Duration
}

// scannedPorts is the classic sweep order.
var scannedPorts = []uint16{22, 23, 80, 443, 445, 3389, 8080, 8443, 25, 110, 139, 3306, 5432, 6379, 9200}

func (a *portScanAttack) Next(f *Frame) bool {
	if a.rstTo.IsValid() {
		f.TS = a.rstAt
		f.Data = a.fb.tcpFrame(a.rstTo, a.scanner, a.rstPort, uint16(40000+a.rng.intn(20000)),
			packet.TCPRst|packet.TCPAck, 0, 0, 0)
		f.Dir = dirOutbound
		f.Label = LabelPortScan
		f.Actor = false // victim's RST, not the scanner
		f.FlowID = 3<<40 | a.fid
		a.rstTo = netip.Addr{}
		return true
	}
	end := a.cfg.Start + a.cfg.Duration
	if a.at >= end {
		return false
	}
	target := a.cfg.Plan.Host(a.rng.intn(a.cfg.Plan.TotalHosts()))
	port := scannedPorts[a.rng.intn(len(scannedPorts))]
	a.fid++
	f.TS = a.at
	f.Data = a.fb.tcpFrame(a.scanner, target, uint16(40000+a.rng.intn(20000)), port,
		packet.TCPSyn, uint32(a.rng.Uint64()), 0, 0)
	f.Dir = DirInbound
	f.Label = LabelPortScan
	f.Actor = true
	f.FlowID = 3<<40 | a.fid
	// ~70% of probes hit closed ports and elicit a RST.
	if a.rng.bool(0.7) {
		a.rstTo, a.rstPort = target, port
		a.rstAt = a.at + time.Duration(a.rng.logNormal(-0.5, 0.3)*float64(time.Millisecond))
	}
	a.at += time.Duration(a.rng.exp(float64(time.Second) / a.cfg.Rate))
	return true
}

// beaconAttack models C&C beaconing: an infected campus host opens a small
// TLS connection to its controller on a fixed period with jitter — low and
// slow, the opposite of the volumetric attacks.
type beaconAttack struct {
	cfg   AttackConfig
	rng   *prng
	fb    *frameBuilder
	at    time.Duration
	fid   uint64
	cnc   netip.Addr
	phase int
	cport uint16
}

func (a *beaconAttack) Next(f *Frame) bool {
	end := a.cfg.Start + a.cfg.Duration
	if a.at >= end {
		return false
	}
	host := a.cfg.Victim
	f.TS = a.at
	f.Label = LabelBeacon
	f.Actor = true // both endpoints of a C&C session are malicious
	f.FlowID = 4<<40 | a.fid
	switch a.phase {
	case 0: // SYN out
		a.cport = uint16(32768 + a.rng.intn(28000))
		a.fid++
		f.FlowID = 4<<40 | a.fid
		f.Data = a.fb.tcpFrame(host, a.cnc, a.cport, packet.PortHTTPS, packet.TCPSyn, 1, 0, 0)
		f.Dir = dirOutbound
		a.phase = 1
		a.at += 40 * time.Millisecond
	case 1: // SYN|ACK in
		f.Data = a.fb.tcpFrame(a.cnc, host, packet.PortHTTPS, a.cport, packet.TCPSyn|packet.TCPAck, 1, 2, 0)
		f.Dir = DirInbound
		a.phase = 2
		a.at += 40 * time.Millisecond
	case 2: // small exfil push out
		f.Data = a.fb.tcpFrame(host, a.cnc, a.cport, packet.PortHTTPS, packet.TCPAck|packet.TCPPsh, 2, 2, 240)
		f.Dir = dirOutbound
		a.phase = 3
		a.at += 60 * time.Millisecond
	case 3: // command reply in, then sleep until next beacon
		f.Data = a.fb.tcpFrame(a.cnc, host, packet.PortHTTPS, a.cport, packet.TCPAck|packet.TCPPsh, 2, 242, 120)
		f.Dir = DirInbound
		a.phase = 0
		period := time.Duration(3600 / a.cfg.Rate * float64(time.Second))
		jitter := time.Duration(a.rng.normal(0, 0.05*float64(period)))
		a.at += period + jitter
	}
	return true
}

// Merge interleaves multiple generators into one timestamp-ordered stream.
type Merge struct {
	gens  []Generator
	heads []Frame
	valid []bool
}

// NewMerge returns a merged generator over gens.
func NewMerge(gens ...Generator) *Merge {
	m := &Merge{gens: gens, heads: make([]Frame, len(gens)), valid: make([]bool, len(gens))}
	for i, g := range gens {
		m.valid[i] = g.Next(&m.heads[i])
	}
	return m
}

// Next implements Generator.
func (m *Merge) Next(f *Frame) bool {
	best := -1
	for i, ok := range m.valid {
		if ok && (best < 0 || m.heads[i].TS < m.heads[best].TS) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	*f = m.heads[best]
	m.valid[best] = m.gens[best].Next(&m.heads[best])
	return true
}
