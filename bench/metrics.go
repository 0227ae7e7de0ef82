package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and bounds; bench_test.go checks that the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, from untraced rounds only. Times are calibrated (clock.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"allocs_per_op", "count", "lower", 0.10},
}

// perLayer is one module's share. A metric a workload does not exercise
// reads 0 there. Times come from the harness's spans in traced rounds and
// from probes; counts from the stores' own statistics.
var perLayer = []metricDef{
	// Costs the issue lists end to end but that only some workloads have;
	// the driver wants every end-to-end metric on every workload and never
	// zero, so they are reported here (README, "What moved").
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
	{Name: "write_bytes_per_pkt", Unit: "B", Better: "lower"},
	{Name: "cold_bytes_per_pkt", Unit: "B", Better: "lower"},

	{Name: "privacy.apply_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "privacy.bytes_out_per_in", Unit: "ratio", Better: "lower"},

	{Name: "ingest.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ingest.batches", Unit: "count", Better: "higher"},
	{Name: "ingest.shed_pkts", Unit: "count", Better: "lower"},
	{Name: "ingest.rejected_batches", Unit: "count", Better: "lower"},
	{Name: "ingest.index_bytes_per_pkt", Unit: "B", Better: "lower"},
	{Name: "ingest.evict_ms", Unit: "ms", Better: "lower"},

	{Name: "wal.bytes_per_pkt", Unit: "B", Better: "lower"},
	{Name: "wal.appends", Unit: "count", Better: "lower"},
	{Name: "wal.syncs", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_bytes", Unit: "B", Better: "lower"},

	{Name: "tier.seal_ms_per_kpkt", Unit: "ms", Better: "lower"},
	{Name: "tier.seals", Unit: "count", Better: "lower"},
	{Name: "tier.sealed_pkts", Unit: "count", Better: "higher"},
	{Name: "tier.segments", Unit: "count", Better: "lower"},
	{Name: "tier.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "tier.compactions", Unit: "count", Better: "lower"},
	{Name: "tier.compact_rewrite_bytes", Unit: "B", Better: "lower"},
	{Name: "tier.retain_ms", Unit: "ms", Better: "lower"},
	{Name: "tier.retained_segments", Unit: "count", Better: "higher"},

	{Name: "query.cold_selective_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query.hot_selective_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query.absent_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query.cold_window_scan_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query.count_selective_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query.count_label_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query.rows_scanned_per_matched", Unit: "ratio", Better: "lower"},
	{Name: "query.planner_index_frac", Unit: "ratio", Better: "higher"},
	{Name: "query.segments_scanned", Unit: "count", Better: "lower"},
	{Name: "query.segments_pruned", Unit: "count", Better: "higher"},
	{Name: "query.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "query.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "query.filter_cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "recover.snapshot_pkts", Unit: "count", Better: "higher"},
	{Name: "recover.wal_records", Unit: "count", Better: "lower"},
	{Name: "recover.segments_attached", Unit: "count", Better: "higher"},

	{Name: "fleet.encode_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "fleet.decode_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "fleet.wire_bytes_per_pkt", Unit: "B", Better: "lower"},
	{Name: "fleet.inprocess_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "fleet.protocol_tax", Unit: "ratio", Better: "lower"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	{Name: "fleet.redials", Unit: "count", Better: "lower"},
	{Name: "fleet.overloaded_replies", Unit: "count", Better: "lower"},
	{Name: "fleet.duplicate_batches", Unit: "count", Better: "lower"},

	{Name: "features.from_packets_ms", Unit: "ms", Better: "lower"},
	{Name: "features.rows", Unit: "count", Better: "higher"},
	{Name: "ml.fit_forest_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.forest_nodes", Unit: "count", Better: "lower"},
	{Name: "xai.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "xai.fidelity", Unit: "ratio", Better: "higher"},

	{Name: "dataplane.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "dataplane.ensemble_compile_ms", Unit: "ms", Better: "lower"},
	{Name: "dataplane.ensemble_nodes", Unit: "count", Better: "lower"},
	{Name: "dataplane.verdict_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "dataplane.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "dataplane.ensemble_frac", Unit: "ratio", Better: "higher"},
	{Name: "dataplane.drops", Unit: "count", Better: "higher"},

	{Name: "packet.parse_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "control.feedbatch_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "control.new_loop_ms", Unit: "ms", Better: "lower"},
	{Name: "control.mitigations", Unit: "count", Better: "higher"},
	{Name: "control.slowpath_frac", Unit: "ratio", Better: "lower"},

	{Name: "roadtest.run_ms", Unit: "ms", Better: "lower"},
	{Name: "roadtest.recall", Unit: "ratio", Better: "higher"},
	{Name: "roadtest.collateral", Unit: "ratio", Better: "lower"},
	{Name: "netsim.replay_pkts_per_s", Unit: "1/s", Better: "higher"},

	{Name: "host.speed", Unit: "ratio", Better: "higher"},
	{Name: "host.speed_cv", Unit: "ratio", Better: "lower"},
	{Name: "raw.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
	{Name: "proc.rounds", Unit: "count", Better: "higher"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.alloc_mb_per_mop", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_time_coverage", Unit: "ratio", Better: "higher"},
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

// calibrate converts a raw wall-clock value of the named metric, measured
// while the host ran at speed, into calibrated units: durations scale with
// the speed, rates against it, and everything else is left alone.
func calibrate(name string, raw, speed float64) float64 {
	switch unitOf[name] {
	case "s", "ms", "ns":
		return raw * speed
	case "1/s":
		return raw / speed
	}
	return raw
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tagged attaches units to the metrics of defs, reading absent ones as 0.
func tagged(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of x.
func percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
