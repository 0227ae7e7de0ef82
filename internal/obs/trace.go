package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// defaultTraceCap is the span ring capacity of a new registry's tracer.
const defaultTraceCap = 512

// span is one timed stage execution.
type span struct {
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
}

// Tracer keeps the most recent spans in a bounded ring. Recording is a
// mutex-protected slot write (no allocation after the ring fills); the
// slow loop records a handful of spans per pipeline pass, so this is
// nowhere near any hot path.
type Tracer struct {
	mu    sync.Mutex
	ring  []span
	cap   int
	next  int
	total uint64
}

// newTracer returns a tracer holding the last capacity spans.
func newTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &Tracer{cap: capacity}
}

// record appends one span, evicting the oldest when full.
func (t *Tracer) record(name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := span{Name: name, Start: start, Dur: d}
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next] = sp
		t.next = (t.next + 1) % t.cap
	}
	t.total++
}

// totalSpans returns the number of spans ever recorded (including evicted).
func (t *Tracer) totalSpans() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// spans returns the retained spans, oldest first.
func (t *Tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// traceDump is the JSON shape served at /debug/trace.
type traceDump struct {
	Total uint64 `json:"total_spans"`
	Spans []span `json:"spans"`
}

// WriteJSON dumps the retained spans as JSON, oldest first.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	dump := traceDump{Total: t.total}
	dump.Spans = append(dump.Spans, t.ring[t.next:]...)
	dump.Spans = append(dump.Spans, t.ring[:t.next]...)
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}
