// Package obs is campuslab's operational observability layer: a metrics
// registry of atomic counters, gauges, and fixed-bucket histograms with
// labeled families, collector callbacks for aggregating per-instance
// counter blocks at scrape time, a deterministic snapshot API, Prometheus
// text exposition, and span-based stage tracing for the slow loop.
//
// Design constraints, in order:
//
//  1. The dataplane fast path is allocation-free at ~tens of ns/packet
//     and must stay that way. Hot components therefore keep writing the
//     same per-instance atomics they always did (padded to a cache line
//     so unrelated counters never false-share) and register a collector
//     that sums those blocks into registry series only when a snapshot
//     is taken. A scrape costs the scraper, never the packet path.
//  2. Snapshots are deterministic: series are sorted by (name, labels),
//     values format identically across runs, and nothing reads the wall
//     clock, so two runs of the same deterministic workload produce
//     byte-identical snapshots for the deterministic series.
//  3. The registry is safe for concurrent writers — instruments are
//     plain atomics, registration takes a mutex once per handle.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter, padded so that
// adjacent counters in one block never share a cache line (the same
// padded-atomic style as the dataplane's pipelineState counters).
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an atomic float64 gauge (stored as bits, CAS-free loads and
// stores), padded like Counter.
type Gauge struct {
	bits atomic.Uint64
	_    [56]byte
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// add adds delta with a CAS loop.
func (g *Gauge) add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) reset() { g.bits.Store(0) }

// Histogram is a fixed-bucket histogram: upper bounds are set at
// construction, observation is a bounded scan plus two atomic adds —
// allocation-free and safe for concurrent observers.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	n       atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// count returns the number of observations.
func (h *Histogram) count() uint64 { return h.n.Load() }

// sum returns the sum of observed values.
func (h *Histogram) sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sumBits.Store(0)
	h.n.Store(0)
}

// Kind classifies a series.
type Kind uint8

const (
	kindCounter Kind = iota
	kindGauge
	kindHistogram
)

func (k Kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Label is one key=value pair on a series.
type Label struct{ Key, Value string }

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	LE    float64 // upper bound; +Inf for the last
	Count uint64  // cumulative count of observations <= LE
}

// Series is one metric series in a snapshot.
type Series struct {
	Name   string
	Labels []Label
	Kind   Kind
	// Value holds the counter or gauge value.
	Value float64
	// Buckets/Sum/Count are set for histograms.
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// entry is one registered instrument.
type entry struct {
	name   string
	labels []Label
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry binds named, labeled series to instruments and collectors.
type Registry struct {
	mu         sync.Mutex
	entries    map[string]*entry
	help       map[string]string
	collectors []func(*Emitter)
	tracer     *Tracer
	// stages maps a stage name to its resolved counter pair. The map is
	// copy-on-write under mu, so a span end is one pointer load and one map
	// read: no lock, no allocation after a stage's first span.
	stages atomic.Pointer[map[string]*stageCounters]
}

// stageCounters is one stage's series pair, resolved once.
type stageCounters struct{ nanos, calls *Counter }

// newRegistry returns an empty registry with its own span tracer.
func newRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*entry),
		help:    make(map[string]string),
		tracer:  newTracer(defaultTraceCap),
	}
}

// Default is the process-wide registry every component records into.
var Default = newRegistry()

// labelsOf turns alternating key/value strings into sorted labels.
func labelsOf(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	ls := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// seriesKey is the canonical map key for (name, labels).
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte(0xff)
		sb.WriteString(l.Key)
		sb.WriteByte(0xfe)
		sb.WriteString(l.Value)
	}
	return sb.String()
}

func (r *Registry) instrument(name string, kind Kind, kv []string, bounds []float64) *entry {
	labels := labelsOf(kv)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %v, requested as %v", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = newHistogram(bounds)
	}
	r.entries[key] = e
	return e
}

// Counter returns the counter for name with the given label pairs,
// registering it on first use. Repeated calls return the same instrument.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	return r.instrument(name, kindCounter, kv, nil).c
}

// Gauge returns the gauge for name with the given label pairs.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	return r.instrument(name, kindGauge, kv, nil).g
}

// Histogram returns the histogram for name with the given bucket upper
// bounds and label pairs. Bounds are fixed at first registration.
func (r *Registry) Histogram(name string, bounds []float64, kv ...string) *Histogram {
	return r.instrument(name, kindHistogram, kv, bounds).h
}

// setHelp records the help text rendered for a family in text exposition.
func (r *Registry) setHelp(name, text string) {
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// RegisterCollector adds a callback run on every snapshot. Collectors
// emit samples for state the registry does not own (per-instance counter
// blocks, live store statistics). A collector must not call back into
// the registry — it runs with the registry lock held.
func (r *Registry) RegisterCollector(fn func(*Emitter)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Emitter accumulates collector samples during a snapshot. Samples with
// the same (name, labels) are summed, which is how per-instance counter
// blocks aggregate into one process-wide series.
type Emitter struct {
	m map[string]*Series
}

func (e *Emitter) add(name string, kind Kind, v float64, kv []string) {
	labels := labelsOf(kv)
	key := seriesKey(name, labels)
	if s, ok := e.m[key]; ok {
		s.Value += v
		return
	}
	e.m[key] = &Series{Name: name, Labels: labels, Kind: kind, Value: v}
}

// Counter emits one counter sample.
func (e *Emitter) Counter(name string, v uint64, kv ...string) {
	e.add(name, kindCounter, float64(v), kv)
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name string, v float64, kv ...string) {
	e.add(name, kindGauge, v, kv)
}

// snapshot returns every series — owned instruments plus collector
// output — deterministically sorted by name, then labels.
func (r *Registry) snapshot() []Series {
	r.mu.Lock()
	em := &Emitter{m: make(map[string]*Series, len(r.entries))}
	for key, e := range r.entries {
		s := Series{Name: e.name, Labels: e.labels, Kind: e.kind}
		switch e.kind {
		case kindCounter:
			s.Value = float64(e.c.Value())
		case kindGauge:
			s.Value = e.g.value()
		case kindHistogram:
			s.Buckets = make([]Bucket, len(e.h.counts))
			cum := uint64(0)
			for i := range e.h.counts {
				cum += e.h.counts[i].Load()
				le := math.Inf(1)
				if i < len(e.h.bounds) {
					le = e.h.bounds[i]
				}
				s.Buckets[i] = Bucket{LE: le, Count: cum}
			}
			s.Sum = e.h.sum()
			s.Count = e.h.count()
		}
		em.m[key] = &s
	}
	for _, fn := range r.collectors {
		fn(em)
	}
	r.mu.Unlock()

	out := make([]Series, 0, len(em.m))
	keys := make([]string, 0, len(em.m))
	for k := range em.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, *em.m[k])
	}
	return out
}

// SeriesByName returns the snapshot series of one family, sorted.
func (r *Registry) SeriesByName(name string) []Series {
	var out []Series
	for _, s := range r.snapshot() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// resetNames zeroes the owned instruments of the given families (test
// support; collector-backed series are not affected).
func (r *Registry) resetNames(names ...string) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if !want[e.name] {
			continue
		}
		switch e.kind {
		case kindCounter:
			e.c.reset()
		case kindGauge:
			e.g.reset()
		case kindHistogram:
			e.h.reset()
		}
	}
}

// fmtVal formats values deterministically for text exposition.
func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func fmtLE(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value for the text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func writeLabels(sb *strings.Builder, labels []Label, extra ...Label) {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return
	}
	sb.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// WriteText renders the snapshot in Prometheus text exposition format
// (version 0.0.4): deterministic ordering, one TYPE line per family.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	var sb strings.Builder
	lastFamily := ""
	for _, s := range r.snapshot() {
		if s.Name != lastFamily {
			lastFamily = s.Name
			if h, ok := help[s.Name]; ok {
				fmt.Fprintf(&sb, "# HELP %s %s\n", s.Name, h)
			}
			fmt.Fprintf(&sb, "# TYPE %s %s\n", s.Name, s.Kind)
		}
		switch s.Kind {
		case kindHistogram:
			for _, b := range s.Buckets {
				sb.WriteString(s.Name)
				sb.WriteString("_bucket")
				writeLabels(&sb, s.Labels, Label{Key: "le", Value: fmtLE(b.LE)})
				sb.WriteByte(' ')
				sb.WriteString(strconv.FormatUint(b.Count, 10))
				sb.WriteByte('\n')
			}
			sb.WriteString(s.Name)
			sb.WriteString("_sum")
			writeLabels(&sb, s.Labels)
			sb.WriteByte(' ')
			sb.WriteString(fmtVal(s.Sum))
			sb.WriteByte('\n')
			sb.WriteString(s.Name)
			sb.WriteString("_count")
			writeLabels(&sb, s.Labels)
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatUint(s.Count, 10))
			sb.WriteByte('\n')
		default:
			sb.WriteString(s.Name)
			writeLabels(&sb, s.Labels)
			sb.WriteByte(' ')
			sb.WriteString(fmtVal(s.Value))
			sb.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Stage family names: every slow-loop stage (ingest → featurize → train →
// extract → compile → install) and fast-loop tick records one call count
// and one cumulative wall-time counter under its stage label.
const (
	stageNanosName = "campuslab_stage_nanos_total"
	stageCallsName = "campuslab_stage_calls_total"

	// ShardContentionName counts contended datastore shard-lock
	// acquisitions (written by internal/datastore).
	ShardContentionName = "campuslab_store_shard_contention_total"

	// Fleet ingest counter names (registered by internal/fleet); defined
	// here so determinism tests can whitelist the scenario-determined
	// fleet series without importing the fleet package.
	FleetBatchesName = "campuslab_fleet_server_batches_total"
	FleetFramesName  = "campuslab_fleet_server_frames_total"
)

// stage returns the counter pair of a stage, resolving it on first use.
func (r *Registry) stage(stage string) *stageCounters {
	if m := r.stages.Load(); m != nil {
		if sc, ok := (*m)[stage]; ok {
			return sc
		}
	}
	sc := &stageCounters{
		nanos: r.Counter(stageNanosName, "stage", stage),
		calls: r.Counter(stageCallsName, "stage", stage),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := map[string]*stageCounters{stage: sc}
	if m := r.stages.Load(); m != nil {
		for k, v := range *m {
			next[k] = v // a racing resolver's pair holds the same counters
		}
	}
	r.stages.Store(&next)
	return sc
}

// recordStage adds one invocation of stage taking d of wall time, and
// appends a span to the registry's tracer.
func (r *Registry) recordStage(stage string, d time.Duration) {
	sc := r.stage(stage)
	sc.nanos.Add(uint64(d))
	sc.calls.Inc()
	r.tracer.record(stage, time.Now().Add(-d), d)
}

// SpanTimer is a started stage span. It is a plain value, so starting
// and ending one allocates nothing.
type SpanTimer struct {
	r     *Registry
	sc    *stageCounters
	stage string
	start time.Time
}

// StartSpan begins a stage span; End ends it, recording both the stage
// counters and the trace entry. Usage:
//
//	defer obs.Default.StartSpan("ingest").End()
func (r *Registry) StartSpan(stage string) SpanTimer {
	return SpanTimer{r: r, sc: r.stage(stage), stage: stage, start: time.Now()}
}

// End records the span: one call and its wall time on the stage's
// counters, and one trace entry.
func (s SpanTimer) End() {
	d := time.Since(s.start)
	s.sc.nanos.Add(uint64(d))
	s.sc.calls.Inc()
	s.r.tracer.record(s.stage, s.start, d)
}

// Tracer returns the registry's span tracer.
func (r *Registry) Tracer() *Tracer { return r.tracer }
