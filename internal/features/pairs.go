package features

import (
	"cmp"
	"math"
	"net/netip"
	"sort"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// pairSchema names per-(internal host, external peer) features for beacon
// hunting: C&C beaconing is low-and-slow but *periodic* — a statistic only
// visible across many connections in the data store, never in a single
// packet or flow. This is the paper's case for retrospective analysis over
// a retained store.
var pairSchema = []string{
	"conn_count",    // 0: connections host->peer in the analysis span
	"mean_gap_s",    // 1: mean inter-connection gap
	"gap_cv",        // 2: coefficient of variation of gaps (low = periodic)
	"mean_bytes",    // 3: mean bytes per connection (beacons are small)
	"bytes_cv",      // 4: size regularity (beacons are same-sized)
	"dst_wellknown", // 5: peer port < 1024
}

// PairConfig parameterizes beacon-pair extraction.
type PairConfig struct {
	// Campus identifies internal hosts (the potential victims).
	Campus netip.Prefix
	// MinConnections is the fewest host->peer connections worth scoring
	// (default 4 — periodicity needs a few samples).
	MinConnections int
}

// PairID identifies one (internal host, external peer) pair.
type PairID struct {
	Host netip.Addr
	Peer netip.Addr
}

// FromPairs extracts one labeled example per qualifying pair, returning
// the dataset and the pair identities aligned with its rows (callers need
// to know *which* pair a positive prediction names).
func FromPairs(st *datastore.Store, cfg PairConfig) (*Dataset, []PairID) {
	if cfg.MinConnections < 2 {
		cfg.MinConnections = 4
	}
	type pairState struct {
		starts []time.Duration
		bytes  []float64
		port   uint16
		label  traffic.Label
	}
	pairs := make(map[PairID]*pairState)
	for _, fm := range st.Flows() {
		// Orient the flow: internal endpoint is the host.
		var host, peer netip.Addr
		var port uint16
		switch {
		case cfg.Campus.Contains(fm.Key.SrcIP) && !cfg.Campus.Contains(fm.Key.DstIP):
			host, peer, port = fm.Key.SrcIP, fm.Key.DstIP, fm.Key.DstPort
		case cfg.Campus.Contains(fm.Key.DstIP) && !cfg.Campus.Contains(fm.Key.SrcIP):
			host, peer, port = fm.Key.DstIP, fm.Key.SrcIP, fm.Key.SrcPort
		default:
			continue // internal-internal or external-external
		}
		if fm.Key.Proto != packet.IPProtocolTCP {
			continue // beaconing model: TCP sessions
		}
		id := PairID{Host: host, Peer: peer}
		ps := pairs[id]
		if ps == nil {
			ps = &pairState{port: port}
			pairs[id] = ps
		}
		ps.starts = append(ps.starts, fm.First)
		ps.bytes = append(ps.bytes, float64(fm.Bytes))
		if fm.Labeled && ps.label == traffic.LabelBenign {
			ps.label = fm.Label
		}
	}

	d := &Dataset{Schema: pairSchema}
	var ids []PairID
	for _, id := range sortedKeys(pairs, func(a, b PairID) int {
		return cmp.Or(a.Host.Compare(b.Host), a.Peer.Compare(b.Peer))
	}) {
		ps := pairs[id]
		if len(ps.starts) < cfg.MinConnections {
			continue
		}
		sort.Slice(ps.starts, func(i, j int) bool { return ps.starts[i] < ps.starts[j] })
		gaps := make([]float64, 0, len(ps.starts)-1)
		for i := 1; i < len(ps.starts); i++ {
			gaps = append(gaps, (ps.starts[i] - ps.starts[i-1]).Seconds())
		}
		v := make([]float64, len(pairSchema))
		v[0] = float64(len(ps.starts))
		v[1] = mean(gaps)
		v[2] = cv(gaps)
		v[3] = mean(ps.bytes)
		v[4] = cv(ps.bytes)
		if ps.port < 1024 && ps.port != 0 {
			v[5] = 1
		}
		d.X = append(d.X, v)
		d.Y = append(d.Y, int(ps.label))
		ids = append(ids, id)
	}
	return d, ids
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cv is the coefficient of variation (stddev/mean), 0 for degenerate input.
func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}
