package traffic

import (
	"container/heap"
	"fmt"
	"net/netip"
	"time"

	"campuslab/internal/packet"
)

// appClass is one application in the campus mix.
type appClass uint8

// Application classes in the benign campus mix.
const (
	appWeb appClass = iota
	appVideo
	appDNS
	appMail
	appSSH
	appNTP
	appBackup
	numAppClasses
)

var appNames = [numAppClasses]string{"web", "video", "dns", "mail", "ssh", "ntp", "backup"}

// String returns the application name.
func (a appClass) String() string {
	if int(a) < len(appNames) {
		return appNames[a]
	}
	return fmt.Sprintf("app-%d", uint8(a))
}

// Profile parameterizes the benign campus workload.
type Profile struct {
	// Plan is the campus address layout; nil means DefaultPlan(200).
	Plan *AddressPlan
	// FlowsPerSecond is the mean flow arrival rate at peak hours.
	FlowsPerSecond float64
	// Duration of the generated scenario.
	Duration time.Duration
	// StartHour is the local wall-clock hour at scenario start, feeding
	// the diurnal load curve (0-23).
	StartHour int
	// Diurnal enables the day/night load modulation.
	Diurnal bool
	// Seed makes the workload reproducible.
	Seed int64
}

// withDefaults returns p with zero fields replaced by campus defaults.
func (p Profile) withDefaults() Profile {
	if p.Plan == nil {
		p.Plan = DefaultPlan(200)
	}
	if p.FlowsPerSecond <= 0 {
		p.FlowsPerSecond = 100
	}
	if p.Duration <= 0 {
		p.Duration = time.Minute
	}
	return p
}

// appMix gives per-app arrival weights: a realistic campus mix (web+video
// dominant, DNS chatty, nightly backup).
var appMix = [numAppClasses]float64{
	appWeb: 0.42, appVideo: 0.14, appDNS: 0.25,
	appMail: 0.07, appSSH: 0.05, appNTP: 0.04, appBackup: 0.03,
}

// diurnalFactor returns the load multiplier for the wall-clock hour: the
// classic campus curve — quiet pre-dawn, ramp through the morning, peak
// mid-afternoon, evening dorm traffic, backup spike at night.
func diurnalFactor(hour float64) float64 {
	h := int(hour) % 24
	curve := [24]float64{
		0.25, 0.2, 0.15, 0.15, 0.2, 0.3, // 0-5
		0.45, 0.6, 0.8, 0.95, 1.0, 1.0, // 6-11
		0.95, 1.0, 1.0, 0.95, 0.9, 0.8, // 12-17
		0.75, 0.7, 0.65, 0.55, 0.45, 0.35, // 18-23
	}
	next := curve[(h+1)%24]
	frac := hour - float64(int(hour))
	return curve[h]*(1-frac) + next*frac
}

// CampusGenerator emits the benign campus mix in timestamp order.
type CampusGenerator struct {
	prof    Profile
	rng     *prng
	fb      *frameBuilder
	heap    emitterHeap
	nextFID uint64
	pending []Frame // frames ready to hand out (a flow step can make >1)
}

// NewCampus returns a generator for the given profile.
func NewCampus(p Profile) *CampusGenerator {
	p = p.withDefaults()
	g := &CampusGenerator{
		prof: p,
		rng:  newPRNG(p.Seed),
		fb:   newFrameBuilder(),
	}
	arr := &arrivalProcess{gen: g}
	arr.schedule(0)
	heap.Init(&g.heap)
	heap.Push(&g.heap, arr)
	return g
}

// Next implements Generator.
func (g *CampusGenerator) Next(f *Frame) bool {
	for {
		if len(g.pending) > 0 {
			*f = g.pending[0]
			g.pending = g.pending[1:]
			return true
		}
		if g.heap.Len() == 0 {
			return false
		}
		e := g.heap[0]
		var out Frame
		alive := e.emit(&out)
		if alive {
			heap.Fix(&g.heap, 0)
		} else {
			heap.Pop(&g.heap)
		}
		if out.Data != nil {
			*f = out
			return true
		}
	}
}

// arrivalProcess spawns flow emitters following a (possibly diurnal)
// Poisson process. It emits no frames itself.
type arrivalProcess struct {
	gen *CampusGenerator
	at  time.Duration
}

func (a *arrivalProcess) nextTS() time.Duration { return a.at }

func (a *arrivalProcess) schedule(now time.Duration) {
	rate := a.gen.prof.FlowsPerSecond
	if a.gen.prof.Diurnal {
		hour := float64(a.gen.prof.StartHour) + now.Hours()
		rate *= diurnalFactor(hour)
	}
	if rate < 0.001 {
		rate = 0.001
	}
	a.at = now + time.Duration(a.gen.rng.exp(1/rate)*float64(time.Second))
}

func (a *arrivalProcess) emit(f *Frame) bool {
	now := a.at
	if now > a.gen.prof.Duration {
		return false
	}
	a.gen.spawnFlow(now)
	a.schedule(now)
	return true
}

// pickApp draws an application class from the mix.
func (g *CampusGenerator) pickApp() appClass {
	var total float64
	for _, w := range appMix {
		total += w
	}
	u := g.rng.float64() * total
	var acc float64
	for i, w := range appMix {
		acc += w
		if u <= acc {
			return appClass(i)
		}
	}
	return appWeb
}

// spawnFlow creates a new benign flow emitter starting at now.
func (g *CampusGenerator) spawnFlow(now time.Duration) {
	app := g.pickApp()
	plan := g.prof.Plan
	client := plan.Host(g.rng.intn(plan.TotalHosts()))
	cport := uint16(32768 + g.rng.intn(28000))
	g.nextFID++
	fid := g.nextFID

	var em emitter
	switch app {
	case appDNS:
		server := plan.Resolvers[g.rng.zipf(len(plan.Resolvers))]
		em = newDNSExchange(g, now, fid, client, server, cport)
	case appNTP:
		em = &udpExchange{
			gen: g, at: now, fid: fid,
			client: client, server: netip.AddrFrom4([4]byte{129, 6, 15, 28}),
			cport: cport, sport: packet.PortNTP,
			reqLen: 48, respLen: 48,
			rtt: g.rttTo(false),
		}
	default:
		em = newTCPFlow(g, now, fid, app, client, cport)
	}
	heap.Push(&g.heap, em)
}

// rttTo draws a round-trip time; internal targets are LAN-fast.
func (g *CampusGenerator) rttTo(internal bool) time.Duration {
	if internal {
		return time.Duration(g.rng.logNormal(-1.0, 0.4) * float64(time.Millisecond))
	}
	return time.Duration(g.rng.logNormal(2.8, 0.6) * float64(time.Millisecond))
}

// tcpFlow is a scripted TCP connection: handshake, request, response
// packets, teardown. Sizes follow per-app distributions.
type tcpFlow struct {
	gen    *CampusGenerator
	at     time.Duration
	fid    uint64
	app    appClass
	client netip.Addr
	server netip.Addr
	cport  uint16
	sport  uint16
	rtt    time.Duration

	phase      int
	respLeft   int // response bytes still to send
	reqLeft    int
	seqC, seqS uint32
	dir        Direction
}

const tcpMSS = 1448

func newTCPFlow(g *CampusGenerator, now time.Duration, fid uint64, app appClass, client netip.Addr, cport uint16) *tcpFlow {
	f := &tcpFlow{
		gen: g, at: now, fid: fid, app: app,
		client: client, cport: cport,
		seqC: uint32(g.rng.Uint64()), seqS: uint32(g.rng.Uint64()),
	}
	plan := g.prof.Plan
	switch app {
	case appWeb:
		f.server, f.sport = plan.WebServers[g.rng.zipf(len(plan.WebServers))], packet.PortHTTPS
		f.reqLeft = int(g.rng.logNormal(6.0, 0.8)) // ~400B request
		f.respLeft = int(g.rng.pareto(4000, 1.2))  // heavy-tailed response
	case appVideo:
		f.server, f.sport = plan.VideoCDNs[g.rng.zipf(len(plan.VideoCDNs))], packet.PortHTTPS
		f.reqLeft = 500
		f.respLeft = int(g.rng.pareto(200_000, 1.1)) // video segments, very heavy tail
	case appMail:
		f.server, f.sport = plan.MailServers[g.rng.zipf(len(plan.MailServers))], packet.PortIMAPS
		f.reqLeft = int(g.rng.logNormal(5.5, 0.7))
		f.respLeft = int(g.rng.logNormal(8.5, 1.2))
	case appSSH:
		// internal host-to-host administration
		f.server, f.sport = plan.Host(g.rng.intn(plan.TotalHosts())), packet.PortSSH
		f.reqLeft = int(g.rng.logNormal(7.0, 1.0))
		f.respLeft = int(g.rng.logNormal(7.5, 1.0))
	case appBackup:
		f.server, f.sport = netip.AddrFrom4([4]byte{10, 7, 1, 10}), 873 // rsync to admin net
		f.reqLeft = 1000
		f.respLeft = 200
		f.reqLeft = int(g.rng.pareto(500_000, 1.3)) // uploads, not downloads
	default:
		f.server, f.sport = plan.WebServers[0], packet.PortHTTPS
		f.reqLeft, f.respLeft = 400, 4000
	}
	if f.respLeft > 30_000_000 {
		f.respLeft = 30_000_000 // cap the tail so one flow can't run forever
	}
	if f.reqLeft > 10_000_000 {
		f.reqLeft = 10_000_000
	}
	f.rtt = g.rttTo(plan.Contains(f.server))
	return f
}

func (f *tcpFlow) nextTS() time.Duration { return f.at }

func (f *tcpFlow) frame(out *Frame, src, dst netip.Addr, sport, dport uint16, flags packet.TCPFlags, payload int) {
	out.TS = f.at
	out.Data = f.gen.fb.tcpFrame(src, dst, sport, dport, flags, f.seqC, f.seqS, payload)
	out.Dir = directionOf(f.gen.prof.Plan, src, dst)
	out.Label = LabelBenign
	out.FlowID = f.fid
}

func (f *tcpFlow) emit(out *Frame) bool {
	g := f.gen
	c2s := func(fl packet.TCPFlags, n int) {
		f.frame(out, f.client, f.server, f.cport, f.sport, fl, n)
		f.seqC += uint32(n)
	}
	s2c := func(fl packet.TCPFlags, n int) {
		f.frame(out, f.server, f.client, f.sport, f.cport, fl, n)
		f.seqS += uint32(n)
	}
	switch f.phase {
	case 0: // SYN
		c2s(packet.TCPSyn, 0)
		f.phase, f.at = 1, f.at+f.rtt/2
	case 1: // SYN|ACK
		s2c(packet.TCPSyn|packet.TCPAck, 0)
		f.phase, f.at = 2, f.at+f.rtt/2
	case 2: // ACK
		c2s(packet.TCPAck, 0)
		f.phase = 3
		f.at += time.Duration(g.rng.exp(float64(2 * time.Millisecond)))
	case 3: // request data
		n := min(f.reqLeft, tcpMSS)
		c2s(packet.TCPAck|packet.TCPPsh, n)
		f.reqLeft -= n
		if f.reqLeft <= 0 {
			f.phase = 4
			f.at += f.rtt / 2
		} else {
			f.at += time.Duration(g.rng.exp(float64(300 * time.Microsecond)))
		}
	case 4: // response data
		n := min(f.respLeft, tcpMSS)
		s2c(packet.TCPAck|packet.TCPPsh, n)
		f.respLeft -= n
		if f.respLeft <= 0 {
			f.phase = 5
			f.at += f.rtt / 2
		} else {
			// pacing approximates cwnd growth: fast once warmed up
			f.at += time.Duration(g.rng.exp(float64(120 * time.Microsecond)))
		}
	case 5: // FIN from client
		c2s(packet.TCPFin|packet.TCPAck, 0)
		f.phase, f.at = 6, f.at+f.rtt/2
	case 6: // FIN|ACK from server
		s2c(packet.TCPFin|packet.TCPAck, 0)
		f.phase, f.at = 7, f.at+f.rtt/2
	case 7: // final ACK
		c2s(packet.TCPAck, 0)
		return false
	}
	return true
}

// udpExchange is a single request/response datagram pair (NTP etc.).
type udpExchange struct {
	gen             *CampusGenerator
	at              time.Duration
	fid             uint64
	client, server  netip.Addr
	cport, sport    uint16
	reqLen, respLen int
	rtt             time.Duration
	phase           int
}

func (u *udpExchange) nextTS() time.Duration { return u.at }

func (u *udpExchange) emit(out *Frame) bool {
	out.TS = u.at
	out.Label = LabelBenign
	out.FlowID = u.fid
	if u.phase == 0 {
		out.Data = u.gen.fb.udpFrame(u.client, u.server, u.cport, u.sport, u.reqLen)
		out.Dir = directionOf(u.gen.prof.Plan, u.client, u.server)
		u.phase, u.at = 1, u.at+u.rtt
		return true
	}
	out.Data = u.gen.fb.udpFrame(u.server, u.client, u.sport, u.cport, u.respLen)
	out.Dir = directionOf(u.gen.prof.Plan, u.server, u.client)
	return false
}

// dnsExchange is a benign DNS query/response pair with a realistic domain
// catalog and response sizing.
type dnsExchange struct {
	gen            *CampusGenerator
	at             time.Duration
	fid            uint64
	client, server netip.Addr
	cport          uint16
	rtt            time.Duration
	phase          int
	q              packet.DNS
	r              packet.DNS
}

// benignDomains is the campus domain popularity catalog.
var benignDomains = []string{
	"www.google.com", "www.ucsb.edu", "canvas.ucsb.edu", "github.com",
	"www.youtube.com", "api.weather.gov", "pool.ntp.org", "updates.ubuntu.com",
	"mail.ucsb.edu", "scholar.google.com", "www.wikipedia.org", "cdn.jsdelivr.net",
	"registrar.ucsb.edu", "library.ucsb.edu", "zoom.us", "slack.com",
}

func newDNSExchange(g *CampusGenerator, now time.Duration, fid uint64, client, server netip.Addr, cport uint16) *dnsExchange {
	d := &dnsExchange{
		gen: g, at: now, fid: fid,
		client: client, server: server, cport: cport,
		rtt: g.rttTo(g.prof.Plan.Contains(server)),
	}
	name := benignDomains[g.rng.zipf(len(benignDomains))]
	qt := packet.DNSTypeA
	switch {
	case g.rng.bool(0.25):
		qt = packet.DNSTypeAAAA
	case g.rng.bool(0.04):
		// Legacy resolvers and debugging tools still issue ANY queries;
		// benign ANY must not be sufficient evidence of amplification.
		qt = packet.DNSTypeANY
	case g.rng.bool(0.03):
		qt = packet.DNSTypeTXT
	}
	id := uint16(g.rng.Uint64())
	d.q = packet.DNS{
		ID: id, RD: true,
		Questions: []packet.DNSQuestion{{Name: name, Type: qt, Class: 1}},
	}
	var ans []packet.DNSResourceRecord
	switch qt {
	case packet.DNSTypeTXT:
		// SPF/DKIM-style records: few answers, bulky blobs.
		for i, n := 0, 2+g.rng.intn(3); i < n; i++ {
			ans = append(ans, packet.DNSResourceRecord{
				Name: name, Type: qt, Class: 1, TTL: 300,
				Data: make([]byte, 80+g.rng.intn(170)),
			})
		}
	case packet.DNSTypeANY:
		// Legitimate ANY responses return the whole mixed RRset.
		for i, n := 0, 3+g.rng.intn(4); i < n; i++ {
			rtype, rdata := packet.DNSTypeA, make([]byte, 4)
			if g.rng.bool(0.4) {
				rtype, rdata = packet.DNSTypeTXT, make([]byte, 40+g.rng.intn(120))
			}
			ans = append(ans, packet.DNSResourceRecord{Name: name, Type: rtype, Class: 1, TTL: 300, Data: rdata})
		}
	default:
		for i, n := 0, 1+g.rng.intn(5); i < n; i++ {
			rdata := []byte{93, 184, byte(g.rng.intn(256)), byte(g.rng.intn(256))}
			if qt == packet.DNSTypeAAAA {
				rdata = make([]byte, 16)
				rdata[0], rdata[1] = 0x20, 0x01
			}
			ans = append(ans, packet.DNSResourceRecord{Name: name, Type: qt, Class: 1, TTL: 300, Data: rdata})
		}
	}
	d.r = packet.DNS{
		ID: id, QR: true, RD: true, RA: true,
		Questions: d.q.Questions,
		Answers:   ans,
	}
	return d
}

func (d *dnsExchange) nextTS() time.Duration { return d.at }

func (d *dnsExchange) emit(out *Frame) bool {
	out.TS = d.at
	out.Label = LabelBenign
	out.FlowID = d.fid
	if d.phase == 0 {
		out.Data = d.gen.fb.dnsFrame(d.client, d.server, d.cport, packet.PortDNS, &d.q)
		out.Dir = directionOf(d.gen.prof.Plan, d.client, d.server)
		d.phase, d.at = 1, d.at+d.rtt
		return true
	}
	out.Data = d.gen.fb.dnsFrame(d.server, d.client, packet.PortDNS, d.cport, &d.r)
	out.Dir = directionOf(d.gen.prof.Plan, d.server, d.client)
	return false
}
