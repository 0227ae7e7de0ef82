package control

import (
	"reflect"
	"testing"
	"time"

	"campuslab/internal/dataplane"
	"campuslab/internal/faults"
	"campuslab/internal/features"
	"campuslab/internal/obs"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// collectFrames materializes a scenario so the same episode can be fed
// to two loops.
func collectFrames(tb testing.TB, gen traffic.Generator) ([]traffic.Frame, []packet.Summary) {
	tb.Helper()
	fp := newParser()
	var frames []traffic.Frame
	var sums []packet.Summary
	var f traffic.Frame
	var s packet.Summary
	for gen.Next(&f) {
		if err := fp.Parse(f.Data, &s); err != nil {
			continue
		}
		frames = append(frames, f)
		sums = append(sums, s)
	}
	return frames, sums
}

// TestFeedBatchMatchesFeed pins the batched sense stage to the per-frame
// path on tiers that install mitigations mid-stream — every stat,
// mitigation record, per-frame keep decision and switch counter must
// agree. The data-plane leg runs a compiled ensemble whose inline verdicts
// are lost to injected faults, so the control-plane fallback installs the
// mitigation in the middle of a batch: the batch's precomputed verdicts
// must then be committed exactly once, and the rest re-fed one by one.
func TestFeedBatchMatchesFeed(t *testing.T) {
	p := buildPipeline(t)
	ens, err := dataplane.CompileForestEnsemble(p.forest, features.PacketSchema, dataplane.EnsembleConfig{DropClasses: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	legs := []struct {
		name string
		cfg  func() LoopConfig
	}{
		{"controlplane", func() LoopConfig {
			return LoopConfig{
				Tier: TierControlPlane, Program: p.alertProg, Model: p.tree,
				Threshold: 0.9, Window: time.Second, MinEvidence: 30,
			}
		}},
		{"dataplane-ensemble", func() LoopConfig {
			return LoopConfig{
				Tier: TierDataPlane, Program: p.dropProg, Ensemble: ens,
				Threshold: 0.9, Window: time.Second, MinEvidence: 30,
				Faults:    faults.NewSchedule().FailCalls(faults.OpInfer("dataplane"), 1, 1<<40, faults.KindTransient),
				Breaker:   BreakerConfig{Trip: 5, Cooldown: 30 * time.Second},
				Fallbacks: []FallbackTier{{Tier: TierControlPlane, Model: p.tree}},
			}
		}},
	}
	frames, sums := collectFrames(t, p.attackScenario(501, 502))
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			mk := func() *Loop {
				loop, err := NewLoop(leg.cfg())
				if err != nil {
					t.Fatal(err)
				}
				return loop
			}
			seq := mk()
			seqKeep := make([]bool, len(frames))
			for i := range frames {
				seqKeep[i] = seq.feed(&frames[i], &sums[i])
			}

			bat := mk()
			batKeep := make([]bool, len(frames))
			const chunk = 96
			fptrs := make([]*traffic.Frame, 0, chunk)
			sptrs := make([]*packet.Summary, 0, chunk)
			midBatch := 0
			for lo := 0; lo < len(frames); lo += chunk {
				hi := min(lo+chunk, len(frames))
				fptrs, sptrs = fptrs[:0], sptrs[:0]
				for i := lo; i < hi; i++ {
					fptrs = append(fptrs, &frames[i])
					sptrs = append(sptrs, &sums[i])
				}
				gen := bat.Switch().StateGen()
				bat.FeedBatch(fptrs, sptrs, batKeep[lo:hi])
				if bat.Switch().StateGen() != gen {
					midBatch++
				}
			}
			if midBatch == 0 {
				t.Fatal("no mitigation was installed inside a batch; the fallback went unexercised")
			}

			for i := range seqKeep {
				if seqKeep[i] != batKeep[i] {
					t.Fatalf("frame %d: keep diverged (seq=%v batch=%v)", i, seqKeep[i], batKeep[i])
				}
			}
			if ss, bs := seq.Switch().Stats(), bat.Switch().Stats(); !reflect.DeepEqual(ss, bs) {
				t.Fatalf("switch counters diverged:\nseq:   %+v\nbatch: %+v", ss, bs)
			} else if ss.Processed != uint64(len(frames)) {
				t.Fatalf("switch processed %d of %d frames", ss.Processed, len(frames))
			}
			ss, bs := seq.Finish(), bat.Finish()
			// Latency percentiles aside (engine timing state is shared), the
			// counted stats must be identical.
			ss.InferMean, bs.InferMean = 0, 0
			ss.InferMax, bs.InferMax = 0, 0
			if !reflect.DeepEqual(ss, bs) {
				t.Fatalf("stats diverged:\nseq:   %+v\nbatch: %+v", ss, bs)
			}
			if len(ss.Mitigations) == 0 {
				t.Fatal("no mitigation installed")
			}
		})
	}
}

func TestFeedBatchRecordsFastloopStage(t *testing.T) {
	calls := obs.Default.Counter("campuslab_stage_calls_total", "stage", "fastloop")
	before := calls.Value()
	p := buildPipeline(t)
	loop, err := NewLoop(LoopConfig{Tier: TierDataPlane, Program: p.dropProg})
	if err != nil {
		t.Fatal(err)
	}
	frames, sums := collectFrames(t, p.attackScenario(503, 504))
	fptrs := []*traffic.Frame{&frames[0], &frames[1]}
	sptrs := []*packet.Summary{&sums[0], &sums[1]}
	loop.FeedBatch(fptrs, sptrs, make([]bool, 2))
	if calls.Value() <= before {
		t.Fatal("FeedBatch did not record a fastloop telemetry stage")
	}
}
