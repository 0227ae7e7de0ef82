package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/obs"
	"campuslab/internal/traffic"
)

// episodeSpec describes one labeled traffic episode: a benign campus mix
// with attack overlays that run from 5% of the span to its end.
//
// The benign mix is drawn from campusSeed, the same for every run seed.
// Its flow sizes are heavy-tailed (Pareto, alpha 1.1 to 1.3), so two draws
// of equal length differ by a quarter in flows per packet, in allocations
// per packet and in what a query window holds — more than any regression
// this benchmark is meant to catch, and a property of the draw, not of the
// program. The run seed drives everything else: the attack overlays and
// their victims, the query list, the anonymization key and the learning
// seeds.
type episodeSpec struct {
	plan       *traffic.AddressPlan
	flows      float64       // benign flow arrivals per second
	span       time.Duration // how long the generators may run
	attacks    []attackSpec
	frames     int   // exactly this many frames are taken
	campusSeed int64 // fixed per workload
	seed       int64 // the run's seed
}

type attackSpec struct {
	kind traffic.Label
	rate float64
}

// generate draws exactly spec.frames frames: work in a round must not
// depend on the seed through the amount of traffic, so the span is
// generous and the stream is cut at the count.
func generate(e *env, spec episodeSpec) ([]traffic.Frame, error) {
	gens := []traffic.Generator{traffic.NewCampus(traffic.Profile{
		Plan: spec.plan, FlowsPerSecond: spec.flows, Duration: spec.span, Seed: spec.campusSeed,
	})}
	hosts := spec.plan.TotalHosts()
	for i, a := range spec.attacks {
		s := spec.seed*1000 + int64(i)
		gens = append(gens, traffic.NewAttack(traffic.AttackConfig{
			Kind: a.kind, Plan: spec.plan, Victim: spec.plan.Host(int(uint64(s*2654435761) % uint64(hosts))),
			Start: spec.span / 20, Duration: spec.span - spec.span/20,
			Rate: a.rate, Seed: s,
		}))
	}
	// Drawn in chunks, so that set-up too is interleaved with clock samples.
	merged := traffic.NewMerge(gens...)
	frames := make([]traffic.Frame, 0, spec.frames)
	for len(frames) < spec.frames {
		chunk := traffic.Collect(merged, min(spec.frames-len(frames), 4096))
		if len(chunk) == 0 {
			return nil, fmt.Errorf("episode ended after %d of %d frames; lengthen its span", len(frames), spec.frames)
		}
		frames = append(frames, chunk...)
		e.clk.tick()
	}
	return frames, nil
}

// benchKey is the anonymization secret a run's campus uses.
func benchKey(seed int64) []byte { return []byte(fmt.Sprintf("campuslab-bench-key-%d", seed)) }

// sliceGen replays pre-generated frames as a traffic.Generator, so the
// timed section pays for the program under test and not for synthesis.
type sliceGen struct {
	frames []traffic.Frame
	next   int
}

func (g *sliceGen) Next(f *traffic.Frame) bool {
	if g.next >= len(g.frames) {
		return false
	}
	*f = g.frames[g.next]
	g.next++
	return true
}

// scaled shrinks a size for tests, keeping it a positive multiple of unit.
func scaled(n int, scale float64, unit int) int {
	k := int(float64(n)*scale) / unit
	return max(k, 1) * unit
}

// counter reads one series of the process-wide registry.
func counter(name string, kv ...string) float64 {
	return float64(obs.Default.Counter(name, kv...).Value())
}

// digest fingerprints a round's outputs; traced and untraced rounds of the
// same inputs must agree on it.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d digest) str(s string) { d.bytes([]byte(s)) }

func (d digest) sum() uint64 { return d.h.Sum64() }

// sampleFilter picks the packets storeSample folds in.
var sampleFilter = datastore.MustFilter("ip")

// storeSample folds the store's first 256 IP packets (ID, time, bytes)
// into d, so that a fingerprint depends on what was stored and not only on
// how much.
func storeSample(d digest, st *datastore.Store) {
	for _, sp := range st.Select(sampleFilter, 256) {
		d.u64(uint64(sp.ID), uint64(sp.TS))
		d.bytes(sp.Data)
	}
}
