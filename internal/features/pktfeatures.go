package features

import (
	"campuslab/internal/datastore"
	"campuslab/internal/obs"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// PacketSchema names the per-packet features a programmable switch can
// compute inline from header fields — the only features a deployable
// in-network model may use (Figure 2's target-specific program). Order is
// part of the dataplane compiler's contract; see internal/dataplane.
var PacketSchema = []string{
	"wire_len",      // 0
	"is_udp",        // 1
	"is_tcp",        // 2
	"dst_port",      // 3
	"src_port",      // 4
	"tcp_syn_noack", // 5
	"dns_resp",      // 6
	"dns_any",       // 7
	"dns_answers",   // 8
	"ttl",           // 9
}

// PacketVector fills v (len(PacketSchema)) from a packet summary.
func PacketVector(s *packet.Summary, v []float64) {
	v[0] = float64(s.WireLen)
	v[1] = b2f(s.HasUDP)
	v[2] = b2f(s.HasTCP)
	v[3] = float64(s.Tuple.DstPort)
	v[4] = float64(s.Tuple.SrcPort)
	v[5] = b2f(s.HasTCP && s.TCPFlags.Has(packet.TCPSyn) && !s.TCPFlags.Has(packet.TCPAck))
	v[6] = b2f(s.IsDNS && s.DNSResponse)
	v[7] = b2f(s.IsDNS && s.DNSQueryType == packet.DNSTypeANY)
	v[8] = float64(s.DNSAnswerCnt)
	v[9] = float64(s.TTL)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// FromPackets extracts one labeled example per stored packet, labeled by
// the ground-truth label of the packet's flow. benignKeep in (0,1] keeps
// only that fraction of benign packets (class balance; attacks are rare in
// count of flows but flood in packets — and vice versa for beacons).
func FromPackets(st *datastore.Store, benignKeep float64) *Dataset {
	defer obs.Default.StartSpan("featurize").End()
	if benignKeep <= 0 || benignKeep > 1 {
		benignKeep = 1
	}
	labelOf := make(map[packet.FiveTuple]traffic.Label)
	for _, fm := range st.Flows() {
		if fm.Labeled {
			labelOf[fm.Key] = fm.Label
		}
	}
	d := &Dataset{Schema: PacketSchema}
	dims := len(PacketSchema)
	var slab []float64 // rows are cut from 1024-row slabs
	benignSeen := 0
	keepEvery := int(1 / benignKeep)
	if keepEvery < 1 {
		keepEvery = 1
	}
	st.Scan(func(sp *datastore.StoredPacket) bool {
		if !sp.Summary.HasIP {
			return true
		}
		label := traffic.LabelBenign
		if l, ok := labelOf[sp.Summary.Tuple.Canonical()]; ok {
			label = l
		}
		if label == traffic.LabelBenign {
			benignSeen++
			if benignSeen%keepEvery != 0 {
				return true
			}
		}
		if len(slab) < dims {
			slab = make([]float64, 1024*dims)
		}
		v := slab[:dims:dims]
		slab = slab[dims:]
		PacketVector(&sp.Summary, v)
		d.X = append(d.X, v)
		d.Y = append(d.Y, int(label))
		return true
	})
	return d
}
