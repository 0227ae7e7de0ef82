package capture

import (
	"fmt"
	"time"

	"campuslab/internal/traffic"
)

// LoadModelConfig drives a virtual-time capture-capacity experiment: frames
// from a generator arrive at their scenario timestamps while a consumer
// with fixed per-packet service cost drains the ring. This is how E3 sweeps
// offered load (10/20/40/100 Gbps) against appliance capacity without
// needing the wall clock to cooperate.
type LoadModelConfig struct {
	// RingSize is the capture ring capacity in packets.
	RingSize int
	// ServicePerPacket is the fixed cost to process one packet
	// (decode + anonymize + index). 120ns ≈ an 8-10 Mpps appliance core.
	ServicePerPacket time.Duration
	// ServicePerKB adds a throughput-proportional cost (memory/IO) per
	// 1024 bytes of frame.
	ServicePerKB time.Duration
	// Consumers models parallel capture cores sharing the ring.
	Consumers int
}

// LoadModelResult reports the outcome of a virtual-time run.
type LoadModelResult struct {
	Offered     uint64  // packets offered
	Captured    uint64  // packets that made it through the ring
	Dropped     uint64  // packets lost to ring overflow
	OfferedGbps float64 // average offered rate over the run
	MaxDepth    int     // high-water ring occupancy
}

// LossRate returns the packet loss fraction.
func (r LoadModelResult) LossRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Offered)
}

// RunLoadModel consumes gen to exhaustion under the configured capacity
// model. It is deterministic: the same generator seed yields the same
// result.
func RunLoadModel(gen traffic.Generator, cfg LoadModelConfig) (LoadModelResult, error) {
	if cfg.RingSize <= 0 {
		return LoadModelResult{}, fmt.Errorf("capture: RingSize must be positive")
	}
	if cfg.Consumers <= 0 {
		cfg.Consumers = 1
	}
	if cfg.ServicePerPacket <= 0 && cfg.ServicePerKB <= 0 {
		return LoadModelResult{}, fmt.Errorf("capture: service cost must be positive")
	}

	var res LoadModelResult
	var bytes uint64
	// freeAt[i] is when consumer i finishes its current packet.
	freeAt := make([]time.Duration, cfg.Consumers)
	// queue models ring occupancy: the departure times of queued packets.
	queue := make(departures, 0, cfg.RingSize)
	var lastTS time.Duration

	var f traffic.Frame
	for gen.Next(&f) {
		now := f.TS
		lastTS = now
		// Retire packets whose service completed by now.
		for len(queue) > 0 && queue[0] <= now {
			queue.pop()
		}

		res.Offered++
		bytes += uint64(len(f.Data))
		if len(queue) >= cfg.RingSize {
			res.Dropped++
			continue
		}
		// Assign to the earliest-free consumer.
		best := 0
		for i := 1; i < cfg.Consumers; i++ {
			if freeAt[i] < freeAt[best] {
				best = i
			}
		}
		start := now
		if freeAt[best] > start {
			start = freeAt[best]
		}
		cost := cfg.ServicePerPacket + time.Duration(len(f.Data))*cfg.ServicePerKB/1024
		depart := start + cost
		freeAt[best] = depart
		queue.push(depart)
		res.Captured++
		if len(queue) > res.MaxDepth {
			res.MaxDepth = len(queue)
		}
	}
	if lastTS > 0 {
		res.OfferedGbps = float64(bytes*8) / lastTS.Seconds() / 1e9
	}
	return res, nil
}

// departures is a min-heap of departure times, so an arrival retires
// every finished packet in O(log ring) each instead of rescanning the
// ring. Departures leave out of arrival order once several consumers
// share the ring or the per-KB cost varies with frame size, so the
// earliest goes first, not the oldest.
type departures []time.Duration

func (h *departures) push(t time.Duration) {
	q := append(*h, t)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *departures) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1] < q[c] {
			c++
		}
		if q[i] <= q[c] {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
}

// ConstantRateGenerator emits fixed-size frames at a constant bit rate —
// the synthetic line-rate source for capacity sweeps where the shape of
// real traffic would confound the measurement.
type ConstantRateGenerator struct {
	frame    []byte
	interval time.Duration
	n        int
	emitted  int
	at       time.Duration
}

// NewConstantRate builds a generator that offers gbps of frameSize-byte
// packets for the given duration.
func NewConstantRate(gbps float64, frameSize int, duration time.Duration) *ConstantRateGenerator {
	if frameSize < 64 {
		frameSize = 64
	}
	pps := gbps * 1e9 / 8 / float64(frameSize)
	interval := time.Duration(float64(time.Second) / pps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	return &ConstantRateGenerator{
		frame:    make([]byte, frameSize),
		interval: interval,
		n:        int(duration / interval),
	}
}

// Next implements traffic.Generator.
func (g *ConstantRateGenerator) Next(f *traffic.Frame) bool {
	if g.emitted >= g.n {
		return false
	}
	g.emitted++
	g.at += g.interval
	f.TS = g.at
	f.Data = g.frame // shared: capacity model never mutates frames
	f.Dir = traffic.DirInbound
	f.Label = traffic.LabelBenign
	f.FlowID = uint64(g.emitted)
	return true
}
