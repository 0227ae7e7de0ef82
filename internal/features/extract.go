package features

import (
	"net/netip"

	"campuslab/internal/datastore"
	"campuslab/internal/obs"
	"campuslab/internal/packet"
	"campuslab/internal/parallel"
	"campuslab/internal/telemetry"
	"campuslab/internal/traffic"
)

// flowSchema names the per-flow feature columns produced by FromFlows.
var flowSchema = []string{
	"duration_s",      // 0
	"pkts",            // 1
	"bytes",           // 2
	"bytes_per_pkt",   // 3
	"pkts_per_s",      // 4
	"payload_frac",    // 5
	"syn_no_ack",      // 6
	"has_rst",         // 7
	"has_fin",         // 8
	"dns_msgs",        // 9
	"dns_resp_excess", // 10: responses - queries (reflection tell)
	"dns_any_frac",    // 11
	"dst_port_wk",     // 12: well-known destination port
	"src_internal",    // 13
	"dst_internal",    // 14
	"is_udp",          // 15
}

// FromFlows extracts one labeled example per stored flow, fanning the
// flow→vector work across GOMAXPROCS workers.
func FromFlows(st *datastore.Store, campus netip.Prefix) *Dataset {
	return FromFlowsWorkers(st, campus, 0)
}

// FromFlowsWorkers is FromFlows with an explicit worker count (0 = auto).
// Rows are index-addressed into pre-sized slices, so the dataset is
// identical — row for row — at any worker count; workers=1 is the serial
// path.
func FromFlowsWorkers(st *datastore.Store, campus netip.Prefix, workers int) *Dataset {
	defer obs.Default.StartSpan("featurize").End()
	flows := st.Flows()
	d := &Dataset{
		Schema: flowSchema,
		X:      make([][]float64, len(flows)),
		Y:      make([]int, len(flows)),
	}
	parallel.For(len(flows), workers, func(i int) {
		fm := &flows[i]
		d.X[i] = flowVector(fm, campus)
		d.Y[i] = int(fm.Label)
	})
	return d
}

func flowVector(fm *datastore.FlowMeta, campus netip.Prefix) []float64 {
	dur := (fm.Last - fm.First).Seconds()
	pkts := float64(fm.Packets)
	bytes := float64(fm.Bytes)
	v := make([]float64, len(flowSchema))
	v[0] = dur
	v[1] = pkts
	v[2] = bytes
	if pkts > 0 {
		v[3] = bytes / pkts
		v[5] = float64(fm.PayloadBytes) / bytes
	}
	if dur > 0 {
		v[4] = pkts / dur
	} else {
		v[4] = pkts // instantaneous flows: rate = count
	}
	if fm.TCPFlags.Has(packet.TCPSyn) && !fm.TCPFlags.Has(packet.TCPAck) {
		v[6] = 1
	}
	if fm.TCPFlags.Has(packet.TCPRst) {
		v[7] = 1
	}
	if fm.TCPFlags.Has(packet.TCPFin) {
		v[8] = 1
	}
	dnsMsgs := float64(fm.DNSQueries + fm.DNSResponses)
	v[9] = dnsMsgs
	v[10] = float64(fm.DNSResponses) - float64(fm.DNSQueries)
	if dnsMsgs > 0 {
		v[11] = float64(fm.DNSAnyCount) / dnsMsgs
	}
	if fm.Key.DstPort < 1024 && fm.Key.DstPort != 0 {
		v[12] = 1
	}
	if campus.Contains(fm.Key.SrcIP) {
		v[13] = 1
	}
	if campus.Contains(fm.Key.DstIP) {
		v[14] = 1
	}
	if fm.Key.Proto == packet.IPProtocolUDP {
		v[15] = 1
	}
	return v
}

// FromFlowRecords extracts flow features from sampled NetFlow records (the
// E10 bottom-up baseline). Only fields NetFlow exports are available —
// payload fraction, DNS internals and per-packet details are gone, which
// is exactly the handicap being measured. Labels come from the truth map
// (canonical tuple -> label).
var flowRecordSchema = []string{
	"duration_s", "pkts", "bytes", "bytes_per_pkt", "pkts_per_s",
	"syn_no_ack", "has_rst", "has_fin", "dst_port_wk", "is_udp",
}

// FromFlowRecords builds a dataset from sampled exporter output.
func FromFlowRecords(recs []telemetry.FlowRecord, sampleRate int, truth map[packet.FiveTuple]traffic.Label) *Dataset {
	d := &Dataset{Schema: flowRecordSchema}
	for i := range recs {
		r := &recs[i]
		dur := (r.Last - r.First).Seconds()
		pkts := float64(r.Packets) * float64(sampleRate) // inverse-probability estimate
		bytes := float64(r.Bytes) * float64(sampleRate)
		v := make([]float64, len(flowRecordSchema))
		v[0] = dur
		v[1] = pkts
		v[2] = bytes
		if pkts > 0 {
			v[3] = bytes / pkts
		}
		if dur > 0 {
			v[4] = pkts / dur
		} else {
			v[4] = pkts
		}
		if r.TCPFlags.Has(packet.TCPSyn) && !r.TCPFlags.Has(packet.TCPAck) {
			v[5] = 1
		}
		if r.TCPFlags.Has(packet.TCPRst) {
			v[6] = 1
		}
		if r.TCPFlags.Has(packet.TCPFin) {
			v[7] = 1
		}
		if r.Tuple.DstPort < 1024 && r.Tuple.DstPort != 0 {
			v[8] = 1
		}
		if r.Tuple.Proto == packet.IPProtocolUDP {
			v[9] = 1
		}
		d.X = append(d.X, v)
		y := traffic.LabelBenign
		if l, ok := truth[r.Tuple.Canonical()]; ok {
			y = l
		}
		d.Y = append(d.Y, int(y))
	}
	return d
}
