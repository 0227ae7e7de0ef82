package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one harness-side interval around a public call into a layer.
// Spans of one op-group share Op; Parent links a span to the one that was
// open when it began (0 = none). Times are nanoseconds since the tracer
// was made. The name up to the first '.' is the layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. Every method is a no-op
// on a nil tracer, so one round function serves traced and untraced runs.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int // indices of open spans
	cut      int   // first span of the current round
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, op int) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Op: op, StartNs: int64(time.Since(t.t0)),
	})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].EndNs = int64(time.Since(t.t0))
	t.stack = t.stack[:n]
}

// rename relabels the innermost open span: the harness learns what a call
// did (a seal rode along with an ingest) only from the counters after it.
func (t *tracer) rename(name string) {
	if t == nil {
		return
	}
	t.spans[t.stack[len(t.stack)-1]].Name = name
}

// roundTotals sums the spans recorded since the last call: total seconds
// and span count by name, and self seconds by layer (a span's duration
// minus the part its children cover).
type roundTotals struct {
	byName map[string]float64
	count  map[string]int
	self   map[string]float64
}

func (t *tracer) roundTotals() roundTotals {
	rt := roundTotals{byName: map[string]float64{}, count: map[string]int{}, self: map[string]float64{}}
	if t == nil {
		return rt
	}
	spans := t.spans[t.cut:]
	base := t.cut
	t.cut = len(t.spans)
	children := make([]int64, len(spans))
	for _, s := range spans {
		d := s.EndNs - s.StartNs
		rt.byName[s.Name] += float64(d) / 1e9
		rt.count[s.Name]++
		if p := s.Parent - 1 - base; s.Parent > 0 && p >= 0 {
			children[p] += d
		}
	}
	for i, s := range spans {
		rt.self[layerOf(s.Name)] += float64(s.EndNs-s.StartNs-children[i]) / 1e9
	}
	return rt
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
