package main

import (
	"hash/crc32"
	"math"
	"time"
)

// The sandbox this benchmark runs in changes speed under it: identical
// single-threaded runs differ by 20% and more in wall-clock time, in
// plateaus that last from seconds to minutes (a busy neighbour, not
// preemption — process CPU time tracks wall time). Raw durations therefore
// compare hosts, not code. The calibrated clock divides that out: a fixed
// reference kernel is run between operations, its rate relative to a
// nominal constant is the host's speed at that moment, and every reported
// duration is wall time (sampling excluded) multiplied by the mean speed of
// the samples taken around it. A calibrated second is a second on the
// nominal host.
//
// The kernel has two halves, because a neighbour slows a program in two
// ways: by taking cycles and by taking cache. The first half is CRC32-IEEE
// over 256 KiB plus an overlapping copy of it, which stays in the L2 cache
// and follows the core's speed; the second is a chase through a random
// cycle of pointers spread over 8 MiB, which follows the latency of the
// shared cache and memory. A sample's speed is the geometric mean of the
// two rates over their nominal values. Measured over eight runs of each
// workload while the host drifted by a quarter, that mean brought the
// run-to-run variation of the five workloads' throughput from 5..11% raw to
// 3..5%; either half alone, a DEFLATE kernel and a sort kernel each did
// worse on at least one workload (README, "Calibrated clock").

const (
	// nominalCRCRate and nominalChaseRate are the two halves' rates, in
	// repetitions and in steps per second, on the box the workload sizes
	// were tuned on in its usual state. host.speed is 1 there.
	nominalCRCRate   = 50000.0
	nominalChaseRate = 5.0e6
	// One sample is crcReps repetitions and chaseSteps steps, about 2 ms
	// each.
	crcReps    = 100
	chaseSteps = 10000
	// crcSpan is the buffer each repetition checksums and copies.
	crcSpan = 256 << 10
	// chaseSlots 4-byte slots make the 8 MiB the chase wanders through.
	chaseSlots = 2 << 20
	// sampleGap is the least time between samples, which keeps sampling
	// to a tenth of a run.
	sampleGap = 40 * time.Millisecond
	// maxCatchUp bounds the samples taken after one long operation.
	maxCatchUp = 4
)

// hostClock samples the host's speed between operations.
type hostClock struct {
	buf    []byte
	chain  []uint32 // chain[i] is the slot after i on one random cycle
	pos    uint32   // where the chase stands
	sink   uint32
	last   time.Time     // end of the newest sample
	speeds []float64     // every sample of the run, in order
	spent  time.Duration // wall time spent sampling
}

func newHostClock() *hostClock {
	c := &hostClock{buf: make([]byte, crcSpan+crcSpan/2), chain: make([]uint32, chaseSlots)}
	for i := range c.buf {
		c.buf[i] = byte(i * 131)
	}
	// A random permutation (Fisher-Yates on a fixed LCG) linked into a
	// single cycle, so the chase visits every slot before it repeats.
	order := make([]uint32, chaseSlots)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint32(12345)
	for i := chaseSlots - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x>>3) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for i, slot := range order {
		c.chain[slot] = order[(i+1)%chaseSlots]
	}
	c.sample() // page both buffers in; discarded
	c.speeds = c.speeds[:0]
	c.spent = 0
	return c
}

// sample runs the reference kernel once.
func (c *hostClock) sample() {
	t0 := time.Now()
	for i := 0; i < crcReps; i++ {
		c.sink += crc32.ChecksumIEEE(c.buf[:crcSpan])
		copy(c.buf[crcSpan/2:], c.buf[:crcSpan])
	}
	t1 := time.Now()
	pos := c.pos
	for i := 0; i < chaseSteps; i++ {
		pos = c.chain[pos]
	}
	c.pos = pos
	c.last = time.Now()
	c.spent += c.last.Sub(t0)
	crc := crcReps / t1.Sub(t0).Seconds() / nominalCRCRate
	chase := chaseSteps / c.last.Sub(t1).Seconds() / nominalChaseRate
	c.speeds = append(c.speeds, math.Sqrt(crc*chase))
}

// tick is called between operations. It samples when sampleGap has passed
// since the last sample, and several times after an operation that was
// much longer than the gap, so that long operations are bracketed by as
// many samples as a run of short ones.
func (c *hostClock) tick() {
	gap := time.Since(c.last)
	if gap < sampleGap {
		return
	}
	n := int(gap / sampleGap)
	if n > maxCatchUp {
		n = maxCatchUp
	}
	for i := 0; i < n; i++ {
		c.sample()
	}
}

// window is one measured interval: its wall time excludes the samples
// taken inside it, and its speed is the mean of those samples and the two
// that bracket it.
type window struct {
	c      *hostClock
	start  time.Time
	spent0 time.Duration
	mark   int
}

// open starts a window right after a fresh sample.
func (c *hostClock) open() window {
	if len(c.speeds) == 0 || time.Since(c.last) >= sampleGap/4 {
		c.sample()
	}
	return window{c: c, start: time.Now(), spent0: c.spent, mark: len(c.speeds) - 1}
}

// close ends the window and returns its wall seconds and host speed;
// calibrated seconds are their product.
func (w window) close() (wall, speed float64) {
	end := time.Now()
	inside := w.c.spent - w.spent0
	w.c.sample()
	wall = (end.Sub(w.start) - inside).Seconds()
	return wall, mean(w.c.speeds[w.mark:])
}

func mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// cv is the coefficient of variation (population standard deviation over
// mean).
func cv(x []float64) float64 {
	m := mean(x)
	if m == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += (v - m) * (v - m)
	}
	return math.Sqrt(s/float64(len(x))) / m
}
