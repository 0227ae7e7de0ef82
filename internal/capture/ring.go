// Package capture implements the campus monitoring substrate the paper
// assumes (§5: "enterprise-wide, continuous, lossless, full packet capture
// at scale"): single-producer/single-consumer ring buffers with precise
// drop accounting, a multi-tap capture engine, pcap persistence, and a
// queueing model used to sweep offered load against capture capacity.
//
// The contract mirrors the commercial appliance the paper cites: every
// packet is either captured or counted as a drop — silent loss is a bug.
package capture

import (
	"sync/atomic"
	"time"
)

// Record is one captured packet: wire bytes plus capture timestamp and the
// tap (link) it was seen on.
type Record struct {
	TS   time.Duration // scenario-relative capture time
	Link uint16        // tap identifier
	Data []byte
}

// ring is a bounded single-producer/single-consumer queue of Records.
// push never blocks: when the ring is full the record is dropped and
// counted. This is the classic NIC-ring discipline — loss happens at a
// known, measured point instead of silently downstream.
type ring struct {
	mask    uint64
	_       [48]byte      // keep head/tail on separate cache lines
	head    atomic.Uint64 // next slot to read (consumer-owned)
	_       [56]byte
	tail    atomic.Uint64 // next slot to write (producer-owned)
	_       [56]byte
	dropped atomic.Uint64
	pushed  atomic.Uint64
	slots   []Record
}

// newRing returns a ring with capacity rounded up to a power of two
// (minimum 8).
func newRing(capacity int) *ring {
	n := 8
	for n < capacity {
		n <<= 1
	}
	return &ring{mask: uint64(n - 1), slots: make([]Record, n)}
}

// capacity returns the ring capacity in records.
func (r *ring) capacity() int { return len(r.slots) }

// push attempts to enqueue rec, returning false (and counting a drop) when
// the ring is full. Producer-side only.
func (r *ring) push(rec Record) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.slots)) {
		r.dropped.Add(1)
		return false
	}
	r.slots[tail&r.mask] = rec
	r.tail.Store(tail + 1)
	r.pushed.Add(1)
	return true
}

// pop dequeues the oldest record, reporting false when the ring is empty.
// Consumer-side only.
func (r *ring) pop(rec *Record) bool {
	head := r.head.Load()
	if head == r.tail.Load() {
		return false
	}
	*rec = r.slots[head&r.mask]
	r.slots[head&r.mask] = Record{} // release the payload reference
	r.head.Store(head + 1)
	return true
}

// size returns the current queue depth (approximate under concurrency).
func (r *ring) size() int { return int(r.tail.Load() - r.head.Load()) }

// droppedCount returns the number of records lost to a full ring.
func (r *ring) droppedCount() uint64 { return r.dropped.Load() }

// pushedCount returns the number of records successfully enqueued.
func (r *ring) pushedCount() uint64 { return r.pushed.Load() }
