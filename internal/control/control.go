// Package control implements Figure 2's fast online control loop — sense,
// infer, react — with the inference step placeable on three compute tiers
// (data plane, control plane, cloud), each with its own latency and
// capacity model. The tier comparison is §2's resource-allocation
// question: "the allocation of compute resources ... will depend on how
// fast and with what accuracy that task has to be performed."
package control

import (
	"fmt"
	"time"
)

// Tier is where inference runs.
type Tier uint8

// Inference placement tiers.
const (
	// TierDataPlane classifies inline in the switch pipeline: nanosecond
	// verdicts, but only the compiled (depth-bounded) model and no
	// cross-packet state.
	TierDataPlane Tier = iota
	// TierControlPlane punts suspicious packets to the local controller:
	// sub-millisecond RTT, runs the full extracted tree and aggregates
	// evidence across packets.
	TierControlPlane
	// TierCloud ships digests to an off-campus service running the
	// black-box model: most accurate, tens of milliseconds away.
	TierCloud
	numTiers
)

var tierNames = [numTiers]string{"dataplane", "controlplane", "cloud"}

// String returns the tier name.
func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier-%d", uint8(t))
}

// TierModel is a tier's latency/capacity envelope.
type TierModel struct {
	// RTT is the fixed round trip to reach the tier and return a verdict.
	RTT time.Duration
	// Service is the per-request inference cost at the tier.
	Service time.Duration
	// CapacityPPS caps sustained requests/second; excess requests queue
	// (latency grows) rather than drop. <=0 means unbounded.
	CapacityPPS float64
}

// DefaultTierModels returns the calibrated tier envelopes used across the
// experiments: inline ~100ns; controller ~500µs RTT at 200k req/s;
// cloud ~40ms RTT, effectively unbounded capacity.
func DefaultTierModels() [3]TierModel {
	return [3]TierModel{
		TierDataPlane:    {RTT: 0, Service: 100 * time.Nanosecond, CapacityPPS: 0},
		TierControlPlane: {RTT: 500 * time.Microsecond, Service: 10 * time.Microsecond, CapacityPPS: 200_000},
		TierCloud:        {RTT: 40 * time.Millisecond, Service: 50 * time.Microsecond, CapacityPPS: 0},
	}
}

// inferenceEngine simulates request latency at one tier, including queueing
// when offered load exceeds capacity. Deterministic and single-threaded
// (driven by the replay's virtual clock).
type inferenceEngine struct {
	model     TierModel
	busyUntil time.Duration
	requests  uint64
	totalLat  time.Duration
	maxLat    time.Duration
}

// newInferenceEngine builds an engine for the tier model.
func newInferenceEngine(m TierModel) *inferenceEngine {
	return &inferenceEngine{model: m}
}

// submit records a request arriving at now and returns when its verdict is
// available to the switch (now + queueing + service + RTT).
func (e *inferenceEngine) submit(now time.Duration) time.Duration {
	start := now
	if e.model.CapacityPPS > 0 {
		// The server frees up at busyUntil; capacity expressed as
		// minimum spacing between request completions.
		spacing := time.Duration(float64(time.Second) / e.model.CapacityPPS)
		if e.busyUntil > start {
			start = e.busyUntil
		}
		e.busyUntil = start + spacing
	}
	done := start + e.model.Service + e.model.RTT
	lat := done - now
	e.requests++
	e.totalLat += lat
	if lat > e.maxLat {
		e.maxLat = lat
	}
	return done
}

// latencyStats reports request count, mean and max verdict latency.
func (e *inferenceEngine) latencyStats() (n uint64, mean, max time.Duration) {
	if e.requests == 0 {
		return 0, 0, 0
	}
	return e.requests, e.totalLat / time.Duration(e.requests), e.maxLat
}
