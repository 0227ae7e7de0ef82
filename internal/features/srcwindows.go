package features

import (
	"cmp"
	"net/netip"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// sourceWindowSchema names per-(source, window) features — the view a
// scan/sweep detector needs. A port scanner touches many destinations and
// ports from one source; no per-packet or per-destination feature ever
// sees that fan-out.
var sourceWindowSchema = []string{
	"pps",            // 0: packets/s from the source
	"distinct_dsts",  // 1
	"dst_entropy",    // 2
	"distinct_ports", // 3
	"port_entropy",   // 4
	"syn_frac",       // 5: bare-SYN fraction
	"bytes_per_pkt",  // 6
	"dns_frac",       // 7
	"src_internal",   // 8
}

// SourceWindowConfig parameterizes per-source extraction.
type SourceWindowConfig struct {
	// Window is the aggregation interval (default 1s).
	Window time.Duration
	// Campus classifies sources as internal/external.
	Campus netip.Prefix
}

// minWindowPackets is the fewest packets a (source, window) cell needs to
// become an example: sparser windows are dropped.
const minWindowPackets = 3

// srcAgg accumulates one (source, window) cell. It is shared by the batch
// extractor below and the streaming detector in internal/detect.
type srcAgg struct {
	pkts, bytes int
	dsts        map[netip.Addr]int
	ports       map[uint16]int
	syn         int
	dns         int
}

func newSrcAgg() *srcAgg {
	return &srcAgg{dsts: make(map[netip.Addr]int), ports: make(map[uint16]int)}
}

func (a *srcAgg) observe(s *packet.Summary) {
	a.pkts++
	a.bytes += s.WireLen
	a.dsts[s.Tuple.DstIP]++
	a.ports[s.Tuple.DstPort]++
	if s.HasTCP && s.TCPFlags.Has(packet.TCPSyn) && !s.TCPFlags.Has(packet.TCPAck) {
		a.syn++
	}
	if s.IsDNS {
		a.dns++
	}
}

// vector renders the aggregate as a sourceWindowSchema feature row.
func (a *srcAgg) vector(src netip.Addr, campus netip.Prefix, window time.Duration) []float64 {
	v := make([]float64, len(sourceWindowSchema))
	secs := window.Seconds()
	v[0] = float64(a.pkts) / secs
	v[1] = float64(len(a.dsts))
	v[2] = entropy(a.dsts)
	v[3] = float64(len(a.ports))
	v[4] = entropy(a.ports)
	v[5] = float64(a.syn) / float64(a.pkts)
	v[6] = float64(a.bytes) / float64(a.pkts)
	v[7] = float64(a.dns) / float64(a.pkts)
	if campus.IsValid() && campus.Contains(src) {
		v[8] = 1
	}
	return v
}

// SourceWindowResult is one closed (source, window) cell from the
// streaming tracker.
type SourceWindowResult struct {
	Src    netip.Addr
	Window int64
	Vector []float64
}

// SourceWindowTracker is the streaming form of FromSourceWindows: feed it
// packets in time order and it emits each source's feature vector when its
// window closes. One instance per goroutine.
type SourceWindowTracker struct {
	cfg    SourceWindowConfig
	curWin int64
	aggs   map[netip.Addr]*srcAgg
}

// NewSourceWindowTracker builds a tracker; zero-value cfg fields default
// as in FromSourceWindows.
func NewSourceWindowTracker(cfg SourceWindowConfig) *SourceWindowTracker {
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	return &SourceWindowTracker{cfg: cfg, aggs: make(map[netip.Addr]*srcAgg)}
}

// Observe folds one packet in; when ts crosses into a new window it
// returns the closed window's qualifying source vectors (nil otherwise).
func (t *SourceWindowTracker) Observe(ts time.Duration, s *packet.Summary) []SourceWindowResult {
	var out []SourceWindowResult
	win := int64(ts / t.cfg.Window)
	if win != t.curWin {
		out = t.flush()
		t.curWin = win
	}
	if s.HasIP {
		a := t.aggs[s.Tuple.SrcIP]
		if a == nil {
			a = newSrcAgg()
			t.aggs[s.Tuple.SrcIP] = a
		}
		a.observe(s)
	}
	return out
}

// Flush closes the current window unconditionally (end of stream).
func (t *SourceWindowTracker) Flush() []SourceWindowResult { return t.flush() }

func (t *SourceWindowTracker) flush() []SourceWindowResult {
	var out []SourceWindowResult
	for _, src := range sortedKeys(t.aggs, netip.Addr.Compare) {
		if a := t.aggs[src]; a.pkts >= minWindowPackets {
			out = append(out, SourceWindowResult{
				Src: src, Window: t.curWin,
				Vector: a.vector(src, t.cfg.Campus, t.cfg.Window),
			})
		}
	}
	clear(t.aggs)
	return out
}

// FromSourceWindows extracts one labeled example per (source, window).
// A window is labeled with the attack class of any labeled flow the source
// originated during it (attack sources are unambiguous in the scenarios).
func FromSourceWindows(st *datastore.Store, cfg SourceWindowConfig) *Dataset {
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	type key struct {
		src netip.Addr
		win int64
	}
	aggs := make(map[key]*srcAgg)
	labels := make(map[key]traffic.Label)
	st.Scan(func(sp *datastore.StoredPacket) bool {
		if !sp.Summary.HasIP {
			return true
		}
		k := key{src: sp.Summary.Tuple.SrcIP, win: int64(sp.TS / cfg.Window)}
		a := aggs[k]
		if a == nil {
			a = newSrcAgg()
			aggs[k] = a
		}
		a.observe(&sp.Summary)
		// Actor attribution: only packets the malicious actor itself
		// sent label its source's window — a victim's RST replies must
		// not train the detector to convict victims.
		if sp.Actor && sp.Label != traffic.LabelBenign {
			if _, seen := labels[k]; !seen {
				labels[k] = sp.Label
			}
		}
		return true
	})
	d := &Dataset{Schema: sourceWindowSchema}
	for _, k := range sortedKeys(aggs, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.win, b.win), a.src.Compare(b.src))
	}) {
		a := aggs[k]
		if a.pkts < minWindowPackets {
			continue
		}
		d.X = append(d.X, a.vector(k.src, cfg.Campus, cfg.Window))
		d.Y = append(d.Y, int(labels[k]))
	}
	return d
}
