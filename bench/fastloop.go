package main

import (
	"fmt"
	"runtime"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/dataplane"
	"campuslab/internal/features"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// fastloopReplay is Figure 1's right half: set-up trains a forest and
// compiles it whole for the data plane; the timed section deploys a
// control loop with that ensemble and replays a held-out episode through
// it flat out, again and again — zero-loss capacity. Only packet parsing,
// control.FeedBatch and the switch's verdicts run: this is the 0-lock,
// 0-alloc path that observability work must not slow. One packet is one
// op, one pass one op-group.
type fastloopReplay struct {
	loopCfg control.LoopConfig
	heldOut []traffic.Frame
	passes  int
}

// The episode is small enough for the headers a pass touches to stay in
// the core's L2: with 65536 frames the same binary flipped between 2.3 and
// 3.4 Mpkt/s for seconds at a time as the shared L3 changed hands, while
// the clock's kernel read a steady host.
const (
	fastloopFrames = 8192
	fastloopPasses = 160 // per round
)

func (f *fastloopReplay) tailPct() float64 { return 95 }

func (f *fastloopReplay) sizes() map[string]int {
	return map[string]int{"held_out_frames": len(f.heldOut), "passes_per_round": f.passes}
}

func (f *fastloopReplay) close() {}

func (f *fastloopReplay) setup(e *env) error {
	plan := traffic.DefaultPlan(40)
	lab, err := trainedLab(e, plan, scaled(developTrainFrames, e.scale, 4096), 1500)
	if err != nil {
		return err
	}
	dep, err := lab.Develop(developConfig(learnSeed))
	if err != nil {
		return err
	}
	ens, err := dataplane.CompileForestEnsemble(dep.BlackBox, features.PacketSchema, ensembleConfig())
	if err != nil {
		return err
	}
	f.loopCfg = control.LoopConfig{
		Tier: control.TierDataPlane, Program: dep.DropProgram, Ensemble: ens,
		Threshold: 0.9, Window: time.Second, MinEvidence: 30,
	}
	f.passes = scaled(fastloopPasses, e.scale, 2)
	f.heldOut, err = heldOutEpisode(e, plan, scaled(fastloopFrames, e.scale, 4096), 1501)
	return err
}

// replayStaged is control.Loop.Replay re-issued as its public stages:
// parse a batch, feed it, finish.
func replayStaged(loop *control.Loop, frames []traffic.Frame, tr *tracer, op int) control.LoopStats {
	fp := packet.NewFlowParser()
	var (
		batch [control.ReplayBatch]traffic.Frame
		sums  [control.ReplayBatch]packet.Summary
		fptrs [control.ReplayBatch]*traffic.Frame
		sptrs [control.ReplayBatch]*packet.Summary
		keep  [control.ReplayBatch]bool
	)
	for i := range fptrs {
		fptrs[i], sptrs[i] = &batch[i], &sums[i]
	}
	for lo := 0; lo < len(frames); {
		n := 0
		tr.begin("packet.parse", op)
		for ; lo < len(frames) && n < control.ReplayBatch; lo++ {
			batch[n] = frames[lo]
			if fp.Parse(batch[n].Data, &sums[n]) == nil {
				n++
			}
		}
		tr.end()
		if n > 0 {
			tr.begin("control.feed_batch", op)
			loop.FeedBatch(fptrs[:n], sptrs[:n], keep[:n])
			tr.end()
		}
	}
	tr.begin("control.finish", op)
	defer tr.end()
	return loop.Finish()
}

func statsDigest(s *control.LoopStats) uint64 {
	d := newDigest()
	d.str(fmt.Sprintf("%+v", *s))
	return d.sum()
}

func (f *fastloopReplay) round(e *env, tr *tracer) (roundResult, error) {
	res := roundResult{counts: map[string]float64{}}
	dag0 := counter("campuslab_dataplane_batches_total", "path", "dag")
	ens0 := counter("campuslab_dataplane_batches_total", "path", "ensemble")
	scan0 := counter("campuslab_dataplane_batches_total", "path", "scan")
	var first control.LoopStats
	for p := 0; p < f.passes; p++ {
		t0 := time.Now()
		tr.begin("control.new_loop", p)
		loop, err := control.NewLoop(f.loopCfg)
		tr.end()
		if err != nil {
			return res, err
		}
		var stats control.LoopStats
		if tr == nil {
			stats, err = loop.Replay(&sliceGen{frames: f.heldOut})
			if err != nil {
				return res, err
			}
		} else {
			stats = replayStaged(loop, f.heldOut, tr, p)
		}
		dt := time.Since(t0).Seconds()
		res.secs += dt
		res.groups = append(res.groups, dt)

		// A pass counts only if it saw every packet, gave every one a
		// verdict, caught the attack and agrees with the first pass.
		sw := loop.Switch().Stats()
		ok := int(stats.Packets) == len(f.heldOut) &&
			sw.Permitted+sw.Dropped+sw.Alerted+sw.Punted == stats.Packets &&
			stats.DetectionRecall() >= 0.9
		if p == 0 {
			first = stats
			res.fp = statsDigest(&stats)
		} else if statsDigest(&stats) != res.fp {
			ok = false
		}
		if ok {
			res.ops += len(f.heldOut)
		} else {
			res.failed += len(f.heldOut)
		}
		e.clk.tick()
	}
	dag := counter("campuslab_dataplane_batches_total", "path", "dag") - dag0
	ens := counter("campuslab_dataplane_batches_total", "path", "ensemble") - ens0
	scan := counter("campuslab_dataplane_batches_total", "path", "scan") - scan0
	k := res.counts
	k["dataplane.ensemble_frac"] = ratio(ens, dag+ens+scan)
	k["dataplane.drops"] = float64(first.InlineDrops + first.FilterDrops)
	k["dataplane.ensemble_nodes"] = float64(f.loopCfg.Ensemble.Usage().Nodes)
	k["control.mitigations"] = float64(len(first.Mitigations))
	// LoopStats does not say how many packets FeedBatch re-fed one at a
	// time; packets escalated off the switch are the slow path it exposes.
	k["control.slowpath_frac"] = ratio(float64(first.Escalations), float64(first.Packets))
	k["roadtest.recall"] = first.DetectionRecall()
	k["roadtest.collateral"] = first.CollateralRate()
	return res, nil
}

func (f *fastloopReplay) layers(rt roundTotals, r roundResult) map[string]float64 {
	pkts := float64(r.ops)
	return map[string]float64{
		"packet.parse_ns_per_pkt": ratio(rt.byName["packet.parse"], pkts) * 1e9,
		// FeedBatch as a whole; probe subtracts the switch's verdicts.
		"control.feedbatch_ns_per_pkt": ratio(rt.byName["control.feed_batch"], pkts) * 1e9,
		"control.new_loop_ms":          ratio(rt.byName["control.new_loop"], float64(rt.count["control.new_loop"])) * 1e3,
	}
}

// probe times the switch alone: the held-out episode, parsed once, through
// ProcessBatchAt on a switch loaded like the loop's. What is left of
// FeedBatch after that is the loop's own bookkeeping.
func (f *fastloopReplay) probe(e *env, m map[string]float64) error {
	loop, err := control.NewLoop(f.loopCfg)
	if err != nil {
		return err
	}
	sw := loop.Switch()
	fp := packet.NewFlowParser()
	sums := make([]packet.Summary, 0, len(f.heldOut))
	ts := make([]time.Duration, 0, len(f.heldOut))
	var s packet.Summary
	for i := range f.heldOut {
		if fp.Parse(f.heldOut[i].Data, &s) == nil {
			sums = append(sums, s)
			ts = append(ts, f.heldOut[i].TS)
		}
	}
	out := make([]dataplane.Verdict, 0, control.ReplayBatch)
	const reps = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	secs, _ := e.timed(func() error {
		for r := 0; r < reps; r++ {
			for lo := 0; lo < len(sums); lo += control.ReplayBatch {
				hi := min(lo+control.ReplayBatch, len(sums))
				out = sw.ProcessBatchAt(ts[lo:hi], sums[lo:hi], out[:0])
			}
		}
		return nil
	})
	runtime.ReadMemStats(&m1)
	pkts := float64(reps * len(sums))
	m["dataplane.verdict_ns_per_pkt"] = secs / pkts * 1e9
	m["dataplane.allocs_per_pkt"] = float64(m1.Mallocs-m0.Mallocs) / pkts
	m["control.feedbatch_ns_per_pkt"] -= m["dataplane.verdict_ns_per_pkt"]
	return nil
}

// verify has nothing left to do: every pass was checked as it finished.
func (f *fastloopReplay) verify(*env, map[string]float64) (int, error) { return 0, nil }
