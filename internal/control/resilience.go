package control

import (
	"math/rand"
	"time"

	"campuslab/internal/ml"
)

// RetryPolicy is a bounded retry schedule: exponential backoff plus
// deterministic jitter.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per operation; 1 disables retries.
	MaxAttempts int
	// Base is the first retry's backoff.
	Base time.Duration
	// Max caps the exponential backoff.
	Max time.Duration
	// Seed drives the jitter stream; jitter is uniform in [0, backoff/2]
	// and fully deterministic per seed.
	Seed int64
}

// installRetry bounds the React step's install retry loop. Transient
// install failures (control-channel drops, busy table managers — injected
// via faults.Injector in road tests) are retried; permanent failures
// (table full) are never retried. Backoff accrues in the replay's virtual
// clock: each retry pushes the mitigation's effective install time later,
// which is how chaos experiments measure time-to-mitigation inflation.
var installRetry = RetryPolicy{MaxAttempts: 4, Base: 2 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 1}

// Backoff computes the jittered delay to wait before the next retry
// given the current backoff step, and returns the doubled (Max-capped)
// step for the retry after that. jitter must be a caller-owned seeded
// stream so the schedule is deterministic; the delay is step plus a
// uniform draw from [0, step/2]. Every retry loop in the system — the
// React install path here, the fleet ingest client's reconnect loop —
// shares this schedule.
func (p RetryPolicy) Backoff(step time.Duration, jitter *rand.Rand) (delay, next time.Duration) {
	delay = step + time.Duration(jitter.Int63n(int64(step)/2+1))
	next = step * 2
	if next > p.Max {
		next = p.Max
	}
	return delay, next
}

// BreakerConfig parameterizes the per-tier circuit breakers guarding the
// Infer step. After Trip consecutive inference failures at a tier the
// breaker opens: the loop stops sending requests there and degrades to
// the next tier in the fallback chain (paying that tier's latency model).
// After Cooldown of virtual time the breaker half-opens and the next
// request probes the tier again.
type BreakerConfig struct {
	// Trip is the consecutive-failure threshold (default 5).
	Trip int
	// Cooldown is how long an open breaker rejects the tier (default 5s
	// of replay time).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Trip <= 0 {
		c.Trip = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

// FallbackTier is one step of the loop's degradation chain: when every
// earlier tier's breaker is open, inference runs here instead — slower
// (this tier's RTT/service model applies) but alive.
type FallbackTier struct {
	// Tier is the placement; must be TierControlPlane or TierCloud
	// (the data plane cannot serve escalated inference).
	Tier Tier
	// Model classifies escalated packets at this tier, at the tier's
	// DefaultTierModels latency envelope.
	Model ml.Classifier
}

// breaker is one tier's circuit breaker, driven by the replay's virtual
// clock — deterministic, no wall time. State transitions are mirrored
// into the owning loop's counter block (ctr may be nil in unit tests).
type breaker struct {
	cfg         BreakerConfig
	consecutive int
	open        bool
	halfOpen    bool
	openUntil   time.Duration
	trips       uint64
	ctr         *loopCounters
}

// allow reports whether the tier may serve a request at virtual time now,
// transitioning open→half-open when the cooldown has elapsed.
func (b *breaker) allow(now time.Duration) bool {
	if !b.open {
		return true
	}
	if now >= b.openUntil {
		// Half-open: admit one probe; failure() re-opens immediately
		// because consecutive resumes from Trip-1.
		b.open = false
		b.halfOpen = true
		b.consecutive = b.cfg.Trip - 1
		if b.ctr != nil {
			b.ctr.breakerHalfOpens.Inc()
		}
		return true
	}
	return false
}

// failure records a failed request, tripping the breaker at the
// consecutive-failure threshold.
func (b *breaker) failure(now time.Duration) {
	b.consecutive++
	if b.consecutive >= b.cfg.Trip {
		b.open = true
		b.halfOpen = false
		b.openUntil = now + b.cfg.Cooldown
		b.trips++
		b.consecutive = 0
		if b.ctr != nil {
			b.ctr.breakerOpens.Inc()
		}
	}
}

// success resets the consecutive-failure count (and closes a half-open
// breaker for good).
func (b *breaker) success() {
	b.consecutive = 0
	if b.halfOpen {
		b.halfOpen = false
		if b.ctr != nil {
			b.ctr.breakerCloses.Inc()
		}
	}
}

// tierRuntime is one tier of the loop's inference chain: the primary at
// index 0, fallbacks after it in degradation order.
type tierRuntime struct {
	tier    Tier
	model   ml.Classifier // nil only for a data-plane primary
	engine  *inferenceEngine
	breaker breaker
	opName  string // faults op name, "infer.<tier>"
}
