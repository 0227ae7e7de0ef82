// Package faults is a deterministic, seedable fault-injection layer for
// road-testing the system the way a production campus network would break
// it: transient rule-install failures, full switch tables, dead inference
// tiers. Instrumented call sites (the dataplane install path, the control
// loop's inference tiers) ask an Injector whether this call fails; a nil
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

// Kind classifies an injected fault.
type Kind uint8

const (
	// KindTransient faults succeed on retry (a dropped control-channel
	// message, a busy table manager). Callers should back off and retry.
	KindTransient Kind = iota
	// kindPermanent faults do not clear on retry (table full, tier down).
	// Callers must degrade instead of retrying.
	kindPermanent
)

// String names the kind.
func (k Kind) String() string {
	if k == KindTransient {
		return "transient"
	}
	return "permanent"
}

// Instrumented operation names. Injector implementations key schedules
// and rates by these.
const (
	// OpInstall is a dataplane rule/meter install (Switch.InstallFilter,
	// Switch.InstallRateLimit).
	OpInstall = "dataplane.install"
)

// OpInfer returns the inference-op name for a tier ("infer.dataplane",
// "infer.controlplane", "infer.cloud").
func OpInfer(tier string) string { return "infer." + tier }

// faultError is the typed error every injector returns. Callers classify it
// with IsTransient, never by string: a fault that is not transient is
// permanent.
type faultError struct {
	Op   string // instrumented operation that failed
	Kind Kind   // transient vs permanent
	Seq  uint64 // 1-based call index of the failed call, per op
}

// Error renders the fault.
func (e *faultError) Error() string {
	return fmt.Sprintf("faults: injected %s failure at %s (call %d)", e.Kind, e.Op, e.Seq)
}

// IsTransient reports whether err is (or wraps) a transient injected
// fault.
func IsTransient(err error) bool {
	fe, ok := asFault(err)
	return ok && fe.Kind == KindTransient
}

// isPermanent reports whether err is (or wraps) a permanent injected
// fault.
func isPermanent(err error) bool {
	fe, ok := asFault(err)
	return ok && fe.Kind == kindPermanent
}

func asFault(err error) (*faultError, bool) {
	for ; err != nil; err = unwrap(err) {
		if fe, ok := err.(*faultError); ok {
			return fe, true
		}
	}
	return nil, false
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
	Transient uint64 // transient faults injected
	Permanent uint64 // permanent faults injected
}

// counters is the shared per-op accounting every injector embeds.
type counters struct {
	mu    sync.Mutex
	perOp map[string]*opStats
}

func (c *counters) record(op string, k Kind, injected bool) (seq uint64) {
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
		if k == KindTransient {
			st.Transient++
		} else {
			st.Permanent++
		}
		// Every injector funnels injected faults through here, so this
		// one registry write covers install, inference, and persistence
		// faults process-wide. Fault events are rare by construction;
		// the handle lookup is off any hot path.
		obs.Default.Counter("campuslab_faults_injected_total",
			"kind", k.String(), "op", op).Inc()
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
	rates map[string]probRate
	rngs  map[string]*rand.Rand
}

type probRate struct{ transient, permanent float64 }

// NewProb builds a probabilistic injector; all rates start at zero.
func NewProb(seed int64) *Prob {
	return &Prob{
		seed:  seed,
		rates: make(map[string]probRate),
		rngs:  make(map[string]*rand.Rand),
	}
}

// Rate sets op's fault probabilities (each in [0,1]; checked in order
// transient, permanent against one uniform draw). Returns p for chaining.
func (p *Prob) Rate(op string, transient, permanent float64) *Prob {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rates[op] = probRate{transient: transient, permanent: permanent}
	return p
}

// Fail draws the op's RNG and injects at the configured rates.
func (p *Prob) Fail(op string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.rates[op]
	if !ok || (r.transient <= 0 && r.permanent <= 0) {
		p.cnt.record(op, KindTransient, false)
		return nil
	}
	rng := p.rngs[op]
	if rng == nil {
		h := fnv.New64a()
		h.Write([]byte(op))
		rng = rand.New(rand.NewSource(p.seed ^ int64(h.Sum64())))
		p.rngs[op] = rng
	}
	u := rng.Float64()
	var kind Kind
	switch {
	case u < r.transient:
		kind = KindTransient
	case u < r.transient+r.permanent:
		kind = kindPermanent
	default:
		p.cnt.record(op, KindTransient, false)
		return nil
	}
	seq := p.cnt.record(op, kind, true)
	return &faultError{Op: op, Kind: kind, Seq: seq}
}

// Schedule injects faults on scripted per-op call-index windows: "fail
// calls 3 through 7 of dataplane.install, transiently". Calls are counted
// from 1 per op. Windows may overlap; the first matching window wins.
type Schedule struct {
	mu      sync.Mutex
	cnt     counters
	windows map[string][]window
}

type window struct {
	from, to uint64 // inclusive call-index range
	kind     Kind
}

// NewSchedule builds an empty scripted injector.
func NewSchedule() *Schedule {
	return &Schedule{windows: make(map[string][]window)}
}

// FailCalls scripts faults of the given kind for op calls from..to
// (1-based, inclusive). Returns s for chaining.
func (s *Schedule) FailCalls(op string, from, to uint64, kind Kind) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.windows[op] = append(s.windows[op], window{from: from, to: to, kind: kind})
	return s
}

// Fail fires when the op's call counter lands inside a scripted window.
func (s *Schedule) Fail(op string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.cnt.record(op, KindTransient, false)
	for _, w := range s.windows[op] {
		if seq >= w.from && seq <= w.to {
			// Re-record as a fault (undo the healthy count above).
			st := s.cnt.perOp[op]
			if w.kind == KindTransient {
				st.Transient++
			} else {
				st.Permanent++
			}
			return &faultError{Op: op, Kind: w.kind, Seq: seq}
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
