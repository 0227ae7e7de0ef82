package netsim

import (
	"time"

	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// tapFunc observes a frame crossing a link (capture integration point).
type tapFunc func(ts time.Duration, f *traffic.Frame)

// borderFunc inspects a frame at the border switch; returning false drops
// it (the deployed mitigation path). The summary is pre-parsed. The frame
// and the summary are the network's and valid only during the call.
type borderFunc func(ts time.Duration, f *traffic.Frame, s *packet.Summary) bool

// BorderBatchFunc inspects a batch of frames arriving at the border in
// event order, filling keep[i] with whether frame i survives. Deployed
// control loops prefer this over borderFunc: consecutive border arrivals
// are popped together so the loop's sense stage runs once per batch.
// Frames and summaries are the network's and valid only during the call.
type BorderBatchFunc func(ts []time.Duration, frames []*traffic.Frame, sums []*packet.Summary, keep []bool)

// Delivery reports one frame reaching its destination.
type Delivery struct {
	Frame   traffic.Frame
	Sent    time.Duration
	Arrived time.Duration
}

// Latency is the network transit time.
func (d Delivery) Latency() time.Duration { return d.Arrived - d.Sent }

// SimStats aggregates a run.
type SimStats struct {
	Injected     uint64
	Delivered    uint64
	QueueDrops   uint64
	BorderDrops  uint64
	Unroutable   uint64
	TotalLatency time.Duration
	MaxLatency   time.Duration
	LinkBytes    map[LinkID]uint64
}

// Network is a runnable simulation instance over a topology. It reads
// the topology and never writes it, so any number of networks may run
// over one topology at once.
type Network struct {
	topo   *Topology
	events []*event // min-heap on (at, seq)
	free   *event   // released events, linked through next
	// linkFree[l] is when link l's transmitter is next idle.
	linkFree []time.Duration
	// linkBytes[l] is what link l carried; run copies it to stats.LinkBytes.
	linkBytes   []uint64
	taps        map[LinkID][]tapFunc
	border      borderFunc
	borderBatch BorderBatchFunc
	onDeliver   func(Delivery)
	stats       SimStats
	parser      *packet.FlowParser
	now         time.Duration
	seq         uint64 // event tie-break counter

	// Reusable border-batch buffers (see stepBatch).
	evBuf   []*event
	tsBuf   []time.Duration
	frmBuf  []*traffic.Frame
	sumPtrs []*packet.Summary
	keepBuf []bool
}

// borderBatchCap bounds one batched border inspection.
const borderBatchCap = 256

// eventChunk is how many events the free list grows by at once.
const eventChunk = 128

// NewNetwork wraps a topology for simulation.
func NewNetwork(t *Topology) *Network {
	return &Network{
		topo:      t,
		linkFree:  make([]time.Duration, len(t.Links)),
		linkBytes: make([]uint64, len(t.Links)),
		taps:      make(map[LinkID][]tapFunc),
		parser:    packet.NewFlowParser(),
		stats:     SimStats{LinkBytes: make(map[LinkID]uint64)},
	}
}

// addTap attaches a tap to a link.
func (n *Network) addTap(l LinkID, fn tapFunc) { n.taps[l] = append(n.taps[l], fn) }

// setBorderFunc installs the border inspection hook.
func (n *Network) setBorderFunc(fn borderFunc) { n.border = fn }

// SetBorderBatchFunc installs the batched border inspection hook. When
// both hooks are set the per-frame borderFunc wins.
func (n *Network) SetBorderBatchFunc(fn BorderBatchFunc) {
	n.borderBatch = fn
	if fn != nil && n.evBuf == nil {
		n.evBuf = make([]*event, 0, borderBatchCap)
		n.tsBuf = make([]time.Duration, borderBatchCap)
		n.frmBuf = make([]*traffic.Frame, borderBatchCap)
		n.sumPtrs = make([]*packet.Summary, borderBatchCap)
		n.keepBuf = make([]bool, borderBatchCap)
	}
}

// OnDeliver registers the delivery callback.
func (n *Network) OnDeliver(fn func(Delivery)) { n.onDeliver = fn }

// event is a frame arriving at a node at a time, on its way to dst. The
// next link is looked up hop by hop, so an event carries no path.
type event struct {
	at    time.Duration
	seq   uint64 // tie-break for determinism
	node  NodeID
	dst   NodeID
	sent  time.Duration
	frame traffic.Frame
	sum   packet.Summary // parsed once, at inject
	next  *event         // free-list link
}

// before orders events by time, then by scheduling order. seq is unique,
// so the order is total and any heap pops the same sequence.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (n *Network) push(ev *event) {
	h := append(n.events, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	n.events = h
}

func (n *Network) pop() *event {
	h := n.events
	top, last := h[0], len(h)-1
	h[0], h[last] = h[last], nil
	h = h[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && before(h[r], h[m]) {
			m = r
		}
		if !before(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	n.events = h
	return top
}

// newEvent takes an event from the free list, growing it by a chunk when
// it is empty.
func (n *Network) newEvent() *event {
	if n.free == nil {
		chunk := make([]event, eventChunk)
		for i := range chunk[:len(chunk)-1] {
			chunk[i].next = &chunk[i+1]
		}
		n.free = &chunk[0]
	}
	ev := n.free
	n.free, ev.next = ev.next, nil
	return ev
}

// release returns a delivered or dropped event to the free list.
func (n *Network) release(ev *event) { ev.next, n.free = n.free, ev }

// inject schedules a frame: the source/destination nodes are resolved from
// the frame's IP addresses, and the frame enters the network at f.TS.
func (n *Network) inject(f *traffic.Frame) {
	ev := n.newEvent()
	if err := n.parser.Parse(f.Data, &ev.sum); err != nil {
		n.stats.Unroutable++
		n.release(ev)
		return
	}
	src := n.topo.nodeFor(ev.sum.Tuple.SrcIP)
	dst := n.topo.nodeFor(ev.sum.Tuple.DstIP)
	if src != dst && n.topo.nextHop[src][dst] < 0 {
		n.stats.Unroutable++
		n.release(ev)
		return
	}
	n.stats.Injected++
	n.seq++
	ev.at, ev.seq, ev.node, ev.dst = f.TS, n.seq, src, dst
	ev.sent, ev.frame = f.TS, *f
	n.push(ev)
}

// run processes all scheduled events to completion and returns statistics.
// Call after injecting the full scenario (or interleave inject/Step).
func (n *Network) run() SimStats {
	for len(n.events) > 0 {
		n.stepBatch(1 << 62)
	}
	for l, b := range n.linkBytes {
		if b != 0 {
			n.stats.LinkBytes[LinkID(l)] = b
		}
	}
	return n.stats
}

// batchable reports whether batched border inspection preserves event
// semantics: it reorders a border frame's continuation (link transmit,
// taps, delivery) after later border inspections in the same batch, which
// is only invisible when no taps or delivery callbacks observe the
// interleaving. Border-outgoing link state is untouched by non-border
// events, so the continuations themselves stay in order.
func (n *Network) batchable() bool {
	return n.borderBatch != nil && n.border == nil && len(n.taps) == 0 && n.onDeliver == nil
}

// stepBatch processes the next event; when the heap's front is a run of
// border arrivals earlier than bound (and batching is semantics
// preserving), the whole run is inspected with one BorderBatchFunc call
// before the survivors continue in order.
func (n *Network) stepBatch(bound time.Duration) {
	if !n.batchable() || n.topo.Nodes[n.events[0].node].Kind != kindBorder {
		n.step()
		return
	}
	evs := n.evBuf[:0]
	for len(evs) < borderBatchCap && len(n.events) > 0 {
		top := n.events[0]
		if top.at >= bound || n.topo.Nodes[top.node].Kind != kindBorder {
			break
		}
		k := len(evs)
		evs = append(evs, n.pop())
		n.tsBuf[k], n.frmBuf[k], n.sumPtrs[k] = top.at, &top.frame, &top.sum
		n.keepBuf[k] = true
	}
	k := len(evs)
	n.borderBatch(n.tsBuf[:k], n.frmBuf[:k], n.sumPtrs[:k], n.keepBuf[:k])
	for i, ev := range evs {
		n.now = ev.at
		if !n.keepBuf[i] {
			n.stats.BorderDrops++
			n.release(ev)
			continue
		}
		n.continueFrame(ev)
	}
	n.evBuf = evs[:0]
}

func (n *Network) step() {
	ev := n.pop()
	n.now = ev.at

	// Border inspection on arrival at the border node.
	if n.topo.Nodes[ev.node].Kind == kindBorder {
		keep := true
		if n.border != nil {
			keep = n.border(ev.at, &ev.frame, &ev.sum)
		} else if n.borderBatch != nil {
			// Single-frame fallback (taps or delivery hooks present).
			n.tsBuf[0], n.frmBuf[0], n.sumPtrs[0] = ev.at, &ev.frame, &ev.sum
			n.keepBuf[0] = true
			n.borderBatch(n.tsBuf[:1], n.frmBuf[:1], n.sumPtrs[:1], n.keepBuf[:1])
			keep = n.keepBuf[0]
		}
		if !keep {
			n.stats.BorderDrops++
			n.release(ev)
			return
		}
	}
	n.continueFrame(ev)
}

// continueFrame advances a frame past inspection: delivery at its
// destination node, otherwise transmission onto the next link toward it.
func (n *Network) continueFrame(ev *event) {
	if ev.node == ev.dst {
		n.stats.Delivered++
		lat := ev.at - ev.sent
		n.stats.TotalLatency += lat
		if lat > n.stats.MaxLatency {
			n.stats.MaxLatency = lat
		}
		if n.onDeliver != nil {
			n.onDeliver(Delivery{Frame: ev.frame, Sent: ev.sent, Arrived: ev.at})
		}
		n.release(ev)
		return
	}

	lid := n.topo.nextHop[ev.node][ev.dst]
	link := &n.topo.Links[lid]
	// Queue model: the transmitter serializes one packet at a time; a
	// frame arriving while the queue already holds QueueLen serialization
	// slots is dropped.
	txTime := time.Duration(float64(len(ev.frame.Data)*8) / link.Bandwidth * float64(time.Second))
	start := ev.at
	if n.linkFree[lid] > start {
		// Waiting time implies queued packets ahead of us.
		queued := float64(n.linkFree[lid]-start) / float64(txTime+1)
		if int(queued) >= link.QueueLen {
			n.stats.QueueDrops++
			n.release(ev)
			return
		}
		start = n.linkFree[lid]
	}
	n.linkFree[lid] = start + txTime
	n.linkBytes[lid] += uint64(len(ev.frame.Data))

	for _, tap := range n.taps[lid] {
		tap(start, &ev.frame)
	}

	ev.at = start + txTime + time.Duration(link.PropDelay*float64(time.Second))
	ev.node = link.To
	n.seq++
	ev.seq = n.seq
	n.push(ev)
}

// Replay injects every frame from gen and runs the simulation,
// interleaving injection with processing so memory stays bounded.
func (n *Network) Replay(gen traffic.Generator) SimStats {
	var f traffic.Frame
	for gen.Next(&f) {
		n.inject(&f)
		// Process everything strictly earlier than the next injection to
		// keep the event heap small.
		for len(n.events) > 0 && n.events[0].at < f.TS {
			n.stepBatch(f.TS)
		}
	}
	return n.run()
}
