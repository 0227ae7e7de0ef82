package dataplane

import (
	"sync"
	"sync/atomic"

	"campuslab/internal/obs"
)

// padUint64 is an atomic counter padded to a cache line so the five
// verdict counters in a block never false-share under concurrent
// pipelines.
type padUint64 struct {
	atomic.Uint64
	_ [56]byte
}

// switchCounters is a switch's verdict counter block. The per-packet
// path keeps writing plain atomics exactly as before — the block is the
// same five counters the Switch struct used to embed, moved behind a
// pointer so the process-wide registry can aggregate them at snapshot
// time without adding a single write to the fast path. Blocks are small
// (five words) and pinned for the life of the process; the switches
// that own them can still be collected.
type switchCounters struct {
	permitted  padUint64
	dropped    padUint64
	alerted    padUint64
	punted     padUint64
	filterHits padUint64
}

var (
	swBlocksMu sync.Mutex
	swBlocks   []*switchCounters
)

// newSwitchCounters allocates a block and pins it for aggregation.
func newSwitchCounters() *switchCounters {
	c := &switchCounters{}
	swBlocksMu.Lock()
	swBlocks = append(swBlocks, c)
	swBlocksMu.Unlock()
	return c
}

// Writer-path metrics: these sites run under writeMu (installs, loads,
// publishes) or once per batch, so plain registry counters cost nothing
// that matters. Handles are resolved once at package init.
var (
	obsStatePublishes = obs.Default.Counter("campuslab_dataplane_state_publishes_total")
	obsCompilesDag    = obs.Default.Counter("campuslab_dataplane_program_loads_total", "path", "dag")
	obsCompilesScan   = obs.Default.Counter("campuslab_dataplane_program_loads_total", "path", "scan")
	obsInstallOK      = obs.Default.Counter("campuslab_dataplane_installs_total", "kind", "filter", "result", "ok")
	obsInstallErr     = obs.Default.Counter("campuslab_dataplane_installs_total", "kind", "filter", "result", "error")
	obsRemoves        = obs.Default.Counter("campuslab_dataplane_removes_total")
	obsBatchesDag     = obs.Default.Counter("campuslab_dataplane_batches_total", "path", "dag")
	obsBatchesScan    = obs.Default.Counter("campuslab_dataplane_batches_total", "path", "scan")
	obsBatchesEns     = obs.Default.Counter("campuslab_dataplane_batches_total", "path", "ensemble")
	obsEnsMemoHit     = obs.Default.Counter("campuslab_dataplane_ensemble_memo_total", "result", "hit")
	obsEnsMemoMiss    = obs.Default.Counter("campuslab_dataplane_ensemble_memo_total", "result", "miss")
	obsEnsMemoBypass  = obs.Default.Counter("campuslab_dataplane_ensemble_memo_total", "result", "bypass")
	obsBatchSize      = obs.Default.Histogram("campuslab_dataplane_batch_size",
		[]float64{16, 64, 256, 1024})
)

// Ensemble load accounting: one counter per degradation-ladder rung, plus
// gauges reporting what the installed ensemble consumed of its hardware
// budget — the operator-visible face of the compile-time admission.
var (
	obsEnsLoadExact    = obs.Default.Counter("campuslab_dataplane_ensemble_loads_total", "mode", "exact")
	obsEnsLoadPruned   = obs.Default.Counter("campuslab_dataplane_ensemble_loads_total", "mode", "pruned")
	obsEnsLoadFallback = obs.Default.Counter("campuslab_dataplane_ensemble_loads_total", "mode", "fallback")
	obsEnsTrees        = obs.Default.Gauge("campuslab_dataplane_ensemble_trees")
	obsEnsNodes        = obs.Default.Gauge("campuslab_dataplane_ensemble_nodes")
	obsEnsEntries      = obs.Default.Gauge("campuslab_dataplane_ensemble_table_entries")
	obsEnsStages       = obs.Default.Gauge("campuslab_dataplane_ensemble_stages")
)

// countEnsembleLoad records one LoadEnsemble: the ladder rung taken and
// the resources the published program consumes.
func countEnsembleLoad(u EnsembleUsage) {
	switch u.Mode {
	case ensemblePruned:
		obsEnsLoadPruned.Inc()
	case ensembleFallback:
		obsEnsLoadFallback.Inc()
	default:
		obsEnsLoadExact.Inc()
	}
	obsEnsTrees.Set(float64(u.Trees))
	obsEnsNodes.Set(float64(u.Nodes))
	obsEnsEntries.Set(float64(u.TableEntries))
	obsEnsStages.Set(float64(u.Stages))
}

// countBatch tallies one classified batch on the path it executed, and
// flushes the tallies of the batch's ensemble memo (nil: it had none).
func countBatch(st *pipelineState, n int, m *ensMemo) {
	switch {
	case st.ens != nil:
		obsBatchesEns.Inc()
		if m != nil {
			obsEnsMemoHit.Add(m.hits)
			obsEnsMemoMiss.Add(m.misses)
			obsEnsMemoBypass.Add(m.bypassed)
		}
	case st.dag != nil:
		obsBatchesDag.Inc()
	default:
		obsBatchesScan.Inc()
	}
	obsBatchSize.Observe(float64(n))
}

func init() {
	obs.Default.RegisterCollector(collectSwitches)
}

// collectSwitches sums every switch's verdict block into the registry's
// dataplane series. Sums are accumulated first so each series is
// emitted once and exists (zero-valued) before any traffic flows.
func collectSwitches(e *obs.Emitter) {
	swBlocksMu.Lock()
	var permit, drop, alert, punt, hits uint64
	n := uint64(len(swBlocks))
	for _, c := range swBlocks {
		permit += c.permitted.Load()
		drop += c.dropped.Load()
		alert += c.alerted.Load()
		punt += c.punted.Load()
		hits += c.filterHits.Load()
	}
	swBlocksMu.Unlock()
	e.Counter("campuslab_dataplane_switches_total", n)
	e.Counter("campuslab_dataplane_verdicts_total", permit, "action", ActionPermit.String())
	e.Counter("campuslab_dataplane_verdicts_total", drop, "action", ActionDrop.String())
	e.Counter("campuslab_dataplane_verdicts_total", alert, "action", ActionAlert.String())
	e.Counter("campuslab_dataplane_verdicts_total", punt, "action", ActionPunt.String())
	e.Counter("campuslab_dataplane_filter_hits_total", hits)
}
