package dataplane

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// tokenBucket is the switch meter primitive (P4 meters, simplified to a
// single-rate two-color marker): traffic within rate+burst conforms,
// excess is marked for drop. Mitigations can rate-limit a victim's inbound
// UDP instead of blackholing it — less collateral than a hard drop.
//
// State lives in atomics so the lock-free verdict path can charge the
// bucket without taking a lock. conforms keeps its original sequential
// contract (non-decreasing ts from one replay goroutine); concurrent
// callers are race-safe but may interleave charges.
type tokenBucket struct {
	rateBps float64 // refill rate in bytes/second
	burst   float64 // bucket depth in bytes

	tokens  atomic.Uint64 // Float64bits of the current token count
	last    atomic.Int64  // last refill time (ns)
	started atomic.Bool

	conformed atomic.Uint64
	exceeded  atomic.Uint64
}

// newTokenBucket builds a meter passing rateBps bytes/second with the
// given burst allowance.
func newTokenBucket(rateBps, burst float64) (*tokenBucket, error) {
	if rateBps <= 0 || burst <= 0 {
		return nil, fmt.Errorf("dataplane: meter rate and burst must be positive (got %v, %v)", rateBps, burst)
	}
	tb := &tokenBucket{rateBps: rateBps, burst: burst}
	tb.tokens.Store(math.Float64bits(burst))
	return tb, nil
}

// conforms charges size bytes at time ts, reporting whether the packet is
// within profile. Calls must have non-decreasing ts.
func (tb *tokenBucket) conforms(ts time.Duration, size int) bool {
	if !tb.started.Load() {
		tb.last.Store(int64(ts))
		tb.started.Store(true)
	}
	last := time.Duration(tb.last.Load())
	tokens := math.Float64frombits(tb.tokens.Load())
	if ts > last {
		tokens += (ts - last).Seconds() * tb.rateBps
		if tokens > tb.burst {
			tokens = tb.burst
		}
		tb.last.Store(int64(ts))
	}
	if float64(size) <= tokens {
		tb.tokens.Store(math.Float64bits(tokens - float64(size)))
		tb.conformed.Add(1)
		return true
	}
	tb.tokens.Store(math.Float64bits(tokens))
	tb.exceeded.Add(1)
	return false
}

// stats returns conforming and exceeding packet counts.
func (tb *tokenBucket) stats() (conformed, exceeded uint64) {
	return tb.conformed.Load(), tb.exceeded.Load()
}
