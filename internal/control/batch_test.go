package control

import (
	"reflect"
	"testing"
	"time"

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
// path on a tier that installs mitigations mid-stream — every stat,
// mitigation record, and per-frame keep decision must agree.
func TestFeedBatchMatchesFeed(t *testing.T) {
	p := buildPipeline(t)
	mk := func() *Loop {
		loop, err := NewLoop(LoopConfig{
			Tier: TierControlPlane, Program: p.alertProg, Model: p.tree,
			Threshold: 0.9, Window: time.Second, MinEvidence: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		return loop
	}
	frames, sums := collectFrames(t, p.attackScenario(501, 502))

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
	for lo := 0; lo < len(frames); lo += chunk {
		hi := lo + chunk
		if hi > len(frames) {
			hi = len(frames)
		}
		fptrs, sptrs = fptrs[:0], sptrs[:0]
		for i := lo; i < hi; i++ {
			fptrs = append(fptrs, &frames[i])
			sptrs = append(sptrs, &sums[i])
		}
		bat.FeedBatch(fptrs, sptrs, batKeep[lo:hi])
	}

	for i := range seqKeep {
		if seqKeep[i] != batKeep[i] {
			t.Fatalf("frame %d: keep diverged (seq=%v batch=%v)", i, seqKeep[i], batKeep[i])
		}
	}
	ss, bs := seq.Finish(), bat.Finish()
	// Latency percentiles aside (engine timing state is shared), the
	// counted stats must be identical.
	ss.InferMean, bs.InferMean = 0, 0
	ss.InferMax, bs.InferMax = 0, 0
	if !reflect.DeepEqual(ss, bs) {
		t.Fatalf("stats diverged:\nseq:   %+v\nbatch: %+v", ss, bs)
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
