// Package telemetry provides the lightweight network sensing primitives of
// §2's activity (i): a space-saving heavy-hitter tracker (E13) and a
// sampled NetFlow exporter. The sampled exporter is the "bottom-up"
// baseline data source that E10 compares against the full-capture data
// store.
package telemetry

import (
	"fmt"
	"sort"
	"time"

	"campuslab/internal/packet"
)

// HeavyHitters tracks the top-k keys by count with the space-saving
// algorithm: bounded memory, guaranteed to contain any key whose true
// count exceeds total/capacity.
type HeavyHitters struct {
	capacity int
	counts   map[uint64]uint64
	errs     map[uint64]uint64
}

// NewHeavyHitters returns a tracker holding at most capacity keys.
func NewHeavyHitters(capacity int) (*HeavyHitters, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("telemetry: capacity must be positive, got %d", capacity)
	}
	return &HeavyHitters{
		capacity: capacity,
		counts:   make(map[uint64]uint64, capacity),
		errs:     make(map[uint64]uint64, capacity),
	}, nil
}

// Add credits key with n.
func (h *HeavyHitters) Add(key uint64, n uint64) {
	if _, ok := h.counts[key]; ok {
		h.counts[key] += n
		return
	}
	if len(h.counts) < h.capacity {
		h.counts[key] = n
		return
	}
	// Evict the minimum, inherit its count as error bound.
	var minKey uint64
	minVal := uint64(1<<63 - 1)
	for k, v := range h.counts {
		if v < minVal {
			minKey, minVal = k, v
		}
	}
	delete(h.counts, minKey)
	delete(h.errs, minKey)
	h.counts[key] = minVal + n
	h.errs[key] = minVal
}

// Entry is one heavy-hitter result.
type Entry struct {
	Key   uint64
	Count uint64 // upper bound
	Err   uint64 // max overcount
}

// Top returns up to n entries sorted by descending count.
func (h *HeavyHitters) Top(n int) []Entry {
	out := make([]Entry, 0, len(h.counts))
	for k, v := range h.counts {
		out = append(out, Entry{Key: k, Count: v, Err: h.errs[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// FlowRecord is a NetFlow-style export record: the sampled, aggregated
// view of a flow — what operators had before full-capture data stores.
type FlowRecord struct {
	Tuple    packet.FiveTuple
	Packets  uint64 // sampled packets observed (scale by rate for estimate)
	Bytes    uint64
	First    time.Duration
	Last     time.Duration
	TCPFlags packet.TCPFlags // OR of sampled flags
}

// SampledExporter implements 1-in-N deterministic packet sampling with
// flow aggregation and idle timeout — the classic router NetFlow pipeline.
type SampledExporter struct {
	rate    int // sample 1 in rate
	idle    time.Duration
	counter int
	active  map[packet.FiveTuple]*FlowRecord
	export  []FlowRecord
	now     time.Duration
}

// NewSampledExporter samples 1-in-rate packets and expires flows after
// idle (default 30s).
func NewSampledExporter(rate int, idle time.Duration) (*SampledExporter, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("telemetry: sample rate must be positive, got %d", rate)
	}
	if idle <= 0 {
		idle = 30 * time.Second
	}
	return &SampledExporter{
		rate: rate, idle: idle,
		active: make(map[packet.FiveTuple]*FlowRecord),
	}, nil
}

// Observe offers one packet summary to the sampler.
func (e *SampledExporter) Observe(ts time.Duration, s *packet.Summary) {
	e.now = ts
	e.counter++
	if e.counter%e.rate != 0 {
		return
	}
	key := s.Tuple.Canonical()
	rec, ok := e.active[key]
	if !ok {
		rec = &FlowRecord{Tuple: key, First: ts}
		e.active[key] = rec
	} else if ts-rec.Last > e.idle {
		// Idle-expire into the export list and start a fresh record.
		e.export = append(e.export, *rec)
		*rec = FlowRecord{Tuple: key, First: ts}
	}
	rec.Packets++
	rec.Bytes += uint64(s.WireLen)
	rec.Last = ts
	rec.TCPFlags |= s.TCPFlags
}

// Flush expires all active flows and returns every exported record.
func (e *SampledExporter) Flush() []FlowRecord {
	keys := make([]packet.FiveTuple, 0, len(e.active))
	for k := range e.active {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Hash() < keys[j].Hash() })
	for _, k := range keys {
		e.export = append(e.export, *e.active[k])
	}
	e.active = make(map[packet.FiveTuple]*FlowRecord)
	out := e.export
	e.export = nil
	return out
}
