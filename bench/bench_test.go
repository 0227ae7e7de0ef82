package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testScale shrinks every input so that all five workloads run in a few
// seconds.
const testScale = 0.02

func testConfig(t *testing.T, workload string, seed int64) config {
	return config{workload: workload, seed: seed, seconds: 0.2, trace: true, scale: testScale, scratchDir: t.TempDir()}
}

// testWorkloads trims the list under the race detector, where the learning
// workloads would push the package past -timeout.
func testWorkloads() []string {
	if raceEnabled {
		return []string{"collect_tiered", "fleet_stream", "fastloop_replay"}
	}
	return workloadNames
}

// exactCounts are per-layer metrics that must repeat exactly between two
// runs of one seed.
var exactCounts = []string{
	"failed_frac", "write_bytes_per_pkt", "cold_bytes_per_pkt", "ingest.batches", "wal.appends",
	"wal.checkpoint_bytes", "tier.seals", "tier.sealed_pkts", "tier.segments", "tier.compactions",
	"tier.compact_rewrite_bytes", "tier.retained_segments", "query.segments_scanned",
	"query.segments_pruned", "query.cache_hit_ratio", "fleet.wire_bytes_per_pkt", "features.rows",
	"ml.forest_nodes", "dataplane.ensemble_nodes", "dataplane.drops", "control.mitigations",
	"recover.snapshot_pkts", "recover.wal_records", "recover.segments_attached",
}

func TestWorkloads(t *testing.T) {
	for _, name := range testWorkloads() {
		t.Run(name, func(t *testing.T) {
			a, err := run(testConfig(t, name, 1))
			if err != nil {
				t.Fatal(err)
			}
			if a.Failed != 0 || len(a.Problems) != 0 {
				t.Fatalf("failed=%d problems=%v", a.Failed, a.Problems)
			}
			if a.Attempted < 1 {
				t.Errorf("attempted = %d", a.Attempted)
			}
			// Every metric named in BENCHMARK.json is there, finite and
			// unit-tagged; end-to-end ones are never zero.
			for _, trace := range []bool{false, true} {
				res := a.final(trace)
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if !res.Correct || len(res.Metrics) != len(defs) {
					t.Fatalf("trace=%v: correct=%v with %d metrics, want %d", trace, res.Correct, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %+v (present %v), want a finite value in %s", d.Name, v, ok, d.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
			}
			if a.TraceHash != a.OutputHash {
				t.Errorf("traced rounds produced %s, untraced %s", a.TraceHash, a.OutputHash)
			}
			if cov := a.PerLayer["trace.self_time_coverage"]; cov < 0.95 || cov > 1.0001 {
				t.Errorf("layers' self times cover %.3f of the traced seconds, want 0.95..1", cov)
			}

			// Same seed: same outputs and the same counts. Other seed: other
			// inputs, so other outputs.
			b, err := run(testConfig(t, name, 1))
			if err != nil {
				t.Fatal(err)
			}
			if a.OutputHash != b.OutputHash {
				t.Errorf("two runs of seed 1 produced %s and %s", a.OutputHash, b.OutputHash)
			}
			for _, m := range exactCounts {
				if a.PerLayer[m] != b.PerLayer[m] {
					t.Errorf("%s = %v and %v on two runs of seed 1", m, a.PerLayer[m], b.PerLayer[m])
				}
			}
			if x, y := a.EndToEnd["allocs_per_op"], b.EndToEnd["allocs_per_op"]; math.Abs(x-y) > 0.02*x {
				t.Errorf("allocs_per_op = %v and %v on two runs of seed 1", x, y)
			}
			if !reflect.DeepEqual(a.Sizes, b.Sizes) {
				t.Errorf("sizes %v and %v on two runs of seed 1", a.Sizes, b.Sizes)
			}
			c, err := run(testConfig(t, name, 2))
			if err != nil {
				t.Fatal(err)
			}
			if c.Failed != 0 || len(c.Problems) != 0 {
				t.Errorf("seed 2: failed=%d problems=%v", c.Failed, c.Problems)
			}
			if c.OutputHash == a.OutputHash {
				t.Errorf("seeds 1 and 2 produced the same outputs (%s)", a.OutputHash)
			}
		})
	}
}

// A wrong answer must make the run incorrect: a batch the harness claims
// but never sends, and a query reference built from the wrong packets.
func TestSabotageIsCaught(t *testing.T) {
	cases := map[string]string{"collect_tiered": "drop-batch", "fleet_stream": "drop-batch", "query_mix": "wrong-reference"}
	for name, fault := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, name, 1)
			cfg.trace = false
			cfg.sabotage = fault
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := rep.final(false)
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s went unnoticed: correct=%v failed=%d problems=%v", fault, res.Correct, res.Failed, rep.Problems)
			}
			if rep.PerLayer["failed_frac"] <= 0 {
				t.Errorf("failed_frac = %v after %s", rep.PerLayer["failed_frac"], fault)
			}
		})
	}
}

func TestTraceFileAndScratch(t *testing.T) {
	cfg := testConfig(t, "fleet_stream", 1)
	cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
	if _, err := run(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		byID[s.ID] = s
	}
	if len(byID) == 0 {
		t.Fatal("no spans written")
	}
	sends := 0
	for _, s := range byID {
		if s.EndNs < s.StartNs || s.Workload != "fleet_stream" {
			t.Fatalf("bad span %+v", s)
		}
		if s.Name == "bench.round" {
			if s.Parent != 0 {
				t.Errorf("round span %d has parent %d", s.ID, s.Parent)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.StartNs > s.StartNs || p.EndNs < s.EndNs {
			t.Fatalf("span %+v is not inside its parent %+v", s, p)
		}
		if s.Name == "fleet.send_batch" {
			sends++
		}
	}
	if sends == 0 {
		t.Error("no fleet.send_batch spans")
	}
	// The run's temp root is gone.
	left, err := os.ReadDir(cfg.scratchDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("scratch not cleaned: %v", left)
	}
}

// BENCHMARK.json and metrics.go name the same metrics, units and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11})
	want := [3]float64{3.5, 13.5, 31}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
