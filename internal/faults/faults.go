// Package faults is a deterministic, seedable fault-injection layer for
// road-testing the system the way a production campus network would break
// it: rule installs that fail and succeed on retry, inference tiers that
// stay down for a scripted stretch of calls. Every injected fault is
// transient — the call would succeed if retried — so a caller that degrades
// instead of retrying does so because it ran out of retries, or because
// of a real, permanent failure such as a full switch table
// (dataplane.ErrTableFull), which no injector imitates. Instrumented call
// sites (the dataplane install path, the control loop's inference tiers)
// ask an Injector whether this call fails; a nil
// injector costs one nil check and changes nothing, so the plumbing is
// free in production configurations. Disk faults are not injected: every
// file operation goes through an FS, and a test hands the code a file
// system that fails or crashes.
//
// All injectors are deterministic: probabilistic faults derive from a
// seed, scripted schedules fire on exact per-op call indices, and nothing
// reads the wall clock — the same replay under the same injector produces
// the same faults, which is what makes chaos experiments (E14)
// reproducible.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"campuslab/internal/obs"
)

// Instrumented operation names. Injector implementations key schedules
// and rates by these.
const (
	// OpInstall is a dataplane rule install (Switch.InstallFilter).
	OpInstall = "dataplane.install"
)

// OpInfer returns the inference-op name for a tier ("infer.dataplane",
// "infer.controlplane", "infer.cloud").
func OpInfer(tier string) string { return "infer." + tier }

// faultError is the typed error every injector returns: a transient fault,
// the call would succeed on retry (a dropped control-channel message, a
// busy table manager). Callers classify it with IsTransient, never by
// string.
type faultError struct {
	Op  string // instrumented operation that failed
	Seq uint64 // 1-based call index of the failed call, per op
}

// Error renders the fault.
func (e *faultError) Error() string {
	return fmt.Sprintf("faults: injected transient failure at %s (call %d)", e.Op, e.Seq)
}

// IsTransient reports whether err is (or wraps) an injected fault, every
// one of which is transient.
func IsTransient(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if _, ok := err.(*faultError); ok {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// Injector decides, per instrumented call, whether that call fails.
// A nil error means the call proceeds normally. Implementations must be
// safe for concurrent use.
type Injector interface {
	Fail(op string) error
}

// opStats counts one op's traffic through an injector.
type opStats struct {
	Calls     uint64 // instrumented calls observed
	Transient uint64 // faults injected
}

// counters is the shared per-op accounting every injector embeds.
type counters struct {
	mu    sync.Mutex
	perOp map[string]*opStats
}

func (c *counters) record(op string, injected bool) (seq uint64) {
	if c.perOp == nil {
		c.perOp = make(map[string]*opStats)
	}
	st := c.perOp[op]
	if st == nil {
		st = &opStats{}
		c.perOp[op] = st
	}
	st.Calls++
	if injected {
		st.Transient++
		// Every injector funnels injected faults through here, so this
		// one registry write covers install, inference, and persistence
		// faults process-wide. Fault events are rare by construction;
		// the handle lookup is off any hot path.
		obs.Default.Counter("campuslab_faults_injected_total",
			"kind", "transient", "op", op).Inc()
	}
	return st.Calls
}

func (c *counters) stats() map[string]opStats {
	out := make(map[string]opStats, len(c.perOp))
	for op, st := range c.perOp {
		out[op] = *st
	}
	return out
}

// Prob injects faults probabilistically at per-op rates, driven by a
// per-op RNG derived from one seed — deterministic for a fixed per-op call
// sequence, and independent of how calls to different ops interleave.
type Prob struct {
	seed int64

	mu    sync.Mutex
	cnt   counters
	rates map[string]float64
	rngs  map[string]*rand.Rand
}

// NewProb builds a probabilistic injector; all rates start at zero.
func NewProb(seed int64) *Prob {
	return &Prob{
		seed:  seed,
		rates: make(map[string]float64),
		rngs:  make(map[string]*rand.Rand),
	}
}

// Rate sets op's fault probability (in [0,1], checked against one uniform
// draw per call). Returns p for chaining.
func (p *Prob) Rate(op string, rate float64) *Prob {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rates[op] = rate
	return p
}

// Fail draws the op's RNG and injects at the configured rates.
func (p *Prob) Fail(op string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	rate := p.rates[op]
	if rate <= 0 {
		p.cnt.record(op, false)
		return nil
	}
	rng := p.rngs[op]
	if rng == nil {
		h := fnv.New64a()
		h.Write([]byte(op))
		rng = rand.New(rand.NewSource(p.seed ^ int64(h.Sum64())))
		p.rngs[op] = rng
	}
	if rng.Float64() >= rate {
		p.cnt.record(op, false)
		return nil
	}
	return &faultError{Op: op, Seq: p.cnt.record(op, true)}
}

// Schedule injects faults on scripted per-op call-index windows: "fail
// calls 3 through 7 of dataplane.install". Calls are counted
// from 1 per op. Windows may overlap; the first matching window wins.
type Schedule struct {
	mu      sync.Mutex
	cnt     counters
	windows map[string][]window
}

type window struct{ from, to uint64 } // inclusive call-index range

// NewSchedule builds an empty scripted injector.
func NewSchedule() *Schedule {
	return &Schedule{windows: make(map[string][]window)}
}

// FailCalls scripts faults for op calls from..to (1-based, inclusive).
// Returns s for chaining.
func (s *Schedule) FailCalls(op string, from, to uint64) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.windows[op] = append(s.windows[op], window{from: from, to: to})
	return s
}

// Fail fires when the op's call counter lands inside a scripted window.
func (s *Schedule) Fail(op string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.cnt.record(op, false)
	for _, w := range s.windows[op] {
		if seq >= w.from && seq <= w.to {
			// Re-record as a fault (undo the healthy count above).
			s.cnt.perOp[op].Transient++
			return &faultError{Op: op, Seq: seq}
		}
	}
	return nil
}

// stats snapshots per-op call and fault counts.
func (s *Schedule) stats() map[string]opStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cnt.stats()
}

// Chain composes injectors: the first non-nil fault wins, so a scripted
// outage can ride on top of background probabilistic noise. Every
// component observes every call (all counters advance), which keeps each
// component's schedule aligned with the full call stream.
type Chain []Injector

// Fail asks each injector in order and returns the first fault.
func (c Chain) Fail(op string) error {
	var first error
	for _, in := range c {
		if err := in.Fail(op); err != nil && first == nil {
			first = err
		}
	}
	return first
}
