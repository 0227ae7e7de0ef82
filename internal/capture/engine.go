package capture

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// sink consumes captured records. Implementations must be safe for
// concurrent use if the engine runs more than one consumer.
type sink interface {
	// Consume takes ownership of rec.Data.
	Consume(rec *Record) error
}

// sinkFunc adapts a function to the sink interface.
type sinkFunc func(rec *Record) error

// Consume implements sink.
func (f sinkFunc) Consume(rec *Record) error { return f(rec) }

// countingSink is a sink that only tallies records and bytes; useful as a
// measurement endpoint.
type countingSink struct {
	Records atomic.Uint64
	Bytes   atomic.Uint64
}

// Consume implements sink.
func (c *countingSink) Consume(rec *Record) error {
	c.Records.Add(1)
	c.Bytes.Add(uint64(len(rec.Data)))
	return nil
}

// engineConfig configures a capture engine.
type engineConfig struct {
	// Taps is the number of independent capture points (border links,
	// distribution links). Each gets its own ring and consumer.
	Taps int
	// RingSize is the per-tap ring capacity in packets.
	RingSize int
	// Sink receives all captured records.
	Sink sink
}

// engine is the multi-tap capture pipeline: producers call inject (one
// goroutine per tap), per-tap consumer goroutines drain rings into the
// sink. Every packet injected is either delivered to the sink or counted
// as a ring drop — the lossless-capture contract made checkable.
type engine struct {
	cfg       engineConfig
	rings     []*ring
	wg        sync.WaitGroup
	cancel    context.CancelFunc
	sinkErr   atomic.Value // error
	started   bool
	delivered atomic.Uint64
}

// newEngine validates cfg and builds the engine.
func newEngine(cfg engineConfig) (*engine, error) {
	if cfg.Taps <= 0 {
		return nil, fmt.Errorf("capture: Taps must be positive, got %d", cfg.Taps)
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	if cfg.Sink == nil {
		return nil, fmt.Errorf("capture: Sink is required")
	}
	e := &engine{cfg: cfg, rings: make([]*ring, cfg.Taps)}
	for i := range e.rings {
		e.rings[i] = newRing(cfg.RingSize)
	}
	return e, nil
}

// start launches one consumer goroutine per tap.
func (e *engine) start(ctx context.Context) {
	ctx, e.cancel = context.WithCancel(ctx)
	e.started = true
	for _, ring := range e.rings {
		e.wg.Add(1)
		go e.consume(ctx, ring)
	}
}

func (e *engine) consume(ctx context.Context, ring *ring) {
	defer e.wg.Done()
	var rec Record
	idle := 0
	for {
		if ring.pop(&rec) {
			idle = 0
			if err := e.cfg.Sink.Consume(&rec); err != nil {
				e.sinkErr.Store(err)
				return
			}
			e.delivered.Add(1)
			continue
		}
		select {
		case <-ctx.Done():
			// Drain what is left, then exit.
			for ring.pop(&rec) {
				if err := e.cfg.Sink.Consume(&rec); err != nil {
					e.sinkErr.Store(err)
					return
				}
				e.delivered.Add(1)
			}
			return
		default:
		}
		if idle++; idle > 64 {
			time.Sleep(20 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// inject offers a frame to tap's ring, returning false if it was dropped.
// Each tap must be fed from a single goroutine (the SPSC contract).
func (e *engine) inject(tap int, ts time.Duration, data []byte) bool {
	return e.rings[tap].push(Record{TS: ts, Link: uint16(tap), Data: data})
}

// stop terminates consumers after draining and returns any sink error.
func (e *engine) stop() error {
	if e.started {
		e.cancel()
		e.wg.Wait()
	}
	if v := e.sinkErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// stats summarizes engine-wide accounting.
type stats struct {
	Injected  uint64 // successfully ring-buffered
	Dropped   uint64 // lost to full rings
	Delivered uint64 // handed to the sink
}

// stats aggregates per-ring counters.
func (e *engine) stats() stats {
	var s stats
	for _, r := range e.rings {
		s.Injected += r.pushedCount()
		s.Dropped += r.droppedCount()
	}
	s.Delivered = e.delivered.Load()
	return s
}
