package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := newRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total"); again != c {
		t.Fatal("same name+labels must return the same counter handle")
	}
	g := r.Gauge("queue_depth")
	g.Set(3.5)
	g.add(-1.5)
	if got := g.value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := newRegistry()
	a := r.Counter("verdicts_total", "action", "drop")
	b := r.Counter("verdicts_total", "action", "permit")
	if a == b {
		t.Fatal("different label values must be distinct series")
	}
	// Label order must not matter.
	x := r.Counter("multi", "b", "2", "a", "1")
	y := r.Counter("multi", "a", "1", "b", "2")
	if x != y {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := newRegistry()
	r.Counter("thing")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("thing")
}

func TestHistogram(t *testing.T) {
	r := newRegistry()
	h := r.Histogram("batch_size", []float64{1, 4, 16})
	for _, v := range []float64{0.5, 1, 2, 5, 100} {
		h.Observe(v)
	}
	if h.count() != 5 {
		t.Fatalf("count = %d, want 5", h.count())
	}
	if h.sum() != 108.5 {
		t.Fatalf("sum = %v, want 108.5", h.sum())
	}
	snap := r.SeriesByName("batch_size")
	if len(snap) != 1 {
		t.Fatalf("series = %d, want 1", len(snap))
	}
	want := []Bucket{{1, 2}, {4, 3}, {16, 4}, {math.Inf(1), 5}}
	if !reflect.DeepEqual(snap[0].Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", snap[0].Buckets, want)
	}
}

func TestConcurrentWriters(t *testing.T) {
	r := newRegistry()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits_total")
			g := r.Gauge("level")
			h := r.Histogram("sizes", []float64{10, 100})
			for j := 0; j < per; j++ {
				c.Inc()
				g.add(1)
				h.Observe(float64(j % 200))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if got := r.Gauge("level").value(); got != goroutines*per {
		t.Fatalf("gauge = %v, want %d", got, goroutines*per)
	}
	if got := r.Histogram("sizes", nil).count(); got != goroutines*per {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*per)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	r := newRegistry()
	r.Counter("z_total").Add(1)
	r.Counter("a_total", "k", "v2").Add(2)
	r.Counter("a_total", "k", "v1").Add(3)
	r.Gauge("m_gauge").Set(7)
	s1, s2 := r.snapshot(), r.snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("back-to-back snapshots differ")
	}
	names := make([]string, 0, len(s1))
	for _, s := range s1 {
		key := s.Name
		for _, l := range s.Labels {
			key += "/" + l.Key + "=" + l.Value
		}
		names = append(names, key)
	}
	want := []string{"a_total/k=v1", "a_total/k=v2", "m_gauge", "z_total"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("snapshot order = %v, want %v", names, want)
	}
}

func TestCollectorSumsDuplicateSeries(t *testing.T) {
	r := newRegistry()
	// Two "instance blocks" emitting the same series must aggregate.
	blocks := []uint64{3, 4}
	r.RegisterCollector(func(e *Emitter) {
		for _, v := range blocks {
			e.Counter("block_events_total", v, "kind", "x")
		}
		e.Gauge("block_live", 1)
		e.Gauge("block_live", 1)
	})
	// Collector output also merges into owned series of the same key.
	r.Counter("block_events_total", "kind", "x").Add(10)
	snap := r.SeriesByName("block_events_total")
	if len(snap) != 1 || snap[0].Value != 17 {
		t.Fatalf("summed series = %+v, want single value 17", snap)
	}
	if live := r.SeriesByName("block_live"); len(live) != 1 || live[0].Value != 2 {
		t.Fatalf("gauge sum = %+v, want 2", live)
	}
}

func TestWriteText(t *testing.T) {
	r := newRegistry()
	r.setHelp("up_total", "things that went up")
	r.Counter("up_total", "stage", "in\"gest\n").Add(3)
	r.Gauge("temp").Set(1.5)
	r.Histogram("sz", []float64{2}).Observe(1)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sz histogram\n",
		"sz_bucket{le=\"2\"} 1\n",
		"sz_bucket{le=\"+Inf\"} 1\n",
		"sz_sum 1\n",
		"sz_count 1\n",
		"# TYPE temp gauge\n",
		"temp 1.5\n",
		"# HELP up_total things that went up\n",
		"# TYPE up_total counter\n",
		`up_total{stage="in\"gest\n"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE up_total") != 1 {
		t.Fatalf("TYPE line must appear once per family:\n%s", out)
	}
}

func TestResetNames(t *testing.T) {
	r := newRegistry()
	r.Counter("a_total").Add(5)
	r.Counter("b_total").Add(7)
	r.Histogram("h", []float64{1}).Observe(3)
	r.resetNames("a_total", "h")
	if got := r.Counter("a_total").Value(); got != 0 {
		t.Fatalf("a_total = %d after reset", got)
	}
	if got := r.Counter("b_total").Value(); got != 7 {
		t.Fatalf("b_total = %d, reset must be targeted", got)
	}
	if got := r.Histogram("h", nil).count(); got != 0 {
		t.Fatalf("histogram count = %d after reset", got)
	}
}

func TestRecordStageAndTracer(t *testing.T) {
	r := newRegistry()
	r.recordStage("ingest", 5*time.Millisecond)
	r.recordStage("ingest", 5*time.Millisecond)
	r.StartSpan("train").End()
	nanos := r.SeriesByName(stageNanosName)
	calls := r.SeriesByName(stageCallsName)
	if len(nanos) != 2 || len(calls) != 2 {
		t.Fatalf("stage series = %d/%d, want 2/2", len(nanos), len(calls))
	}
	if v := r.Counter(stageNanosName, "stage", "ingest").Value(); v != uint64(10*time.Millisecond) {
		t.Fatalf("ingest nanos = %d, want 10ms", v)
	}
	spans := r.Tracer().spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[2].Name != "train" {
		t.Fatalf("last span = %q, want train", spans[2].Name)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := newTracer(4)
	base := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		tr.record("s", base.Add(time.Duration(i)), time.Duration(i))
	}
	if tr.totalSpans() != 10 {
		t.Fatalf("total = %d, want 10", tr.totalSpans())
	}
	spans := tr.spans()
	if len(spans) != 4 {
		t.Fatalf("retained = %d, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := time.Duration(6 + i); sp.Dur != want {
			t.Fatalf("span %d dur = %v, want %v (oldest-first order)", i, sp.Dur, want)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Total uint64 `json:"total_spans"`
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("trace dump is not valid JSON: %v", err)
	}
	if dump.Total != 10 || len(dump.Spans) != 4 {
		t.Fatalf("dump = %+v", dump)
	}
}

// TestSpanResolvesSeriesOnce pins the span cost after a stage's first use:
// nothing is allocated, and the counters a span writes are the ones the
// registry serves under the stage's labels.
func TestSpanResolvesSeriesOnce(t *testing.T) {
	r := newRegistry()
	r.StartSpan("x").End() // first resolution registers the pair
	if n := testing.AllocsPerRun(200, func() {
		defer r.StartSpan("x").End()
	}); n > 0 {
		t.Fatalf("span on a resolved stage allocates %v/op, want 0", n)
	}
	if got := r.Counter(stageCallsName, "stage", "x").Value(); got != 202 {
		t.Fatalf("calls{stage=x} = %d, want 202 (1 + AllocsPerRun's warm-up + 200)", got)
	}
	r.resetNames(stageCallsName, stageNanosName)
	r.recordStage("x", time.Millisecond)
	if c, n := r.Counter(stageCallsName, "stage", "x").Value(), r.Counter(stageNanosName, "stage", "x").Value(); c != 1 || n != uint64(time.Millisecond) {
		t.Fatalf("after reset: calls %d nanos %d, want 1 and 1ms", c, n)
	}
}

// TestSpanConcurrentStages resolves many stages from many goroutines at
// once: every span must land on its own stage's pair.
func TestSpanConcurrentStages(t *testing.T) {
	r := newRegistry()
	stages := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.StartSpan(stages[(g+i)%len(stages)]).End()
			}
		}(g)
	}
	wg.Wait()
	for _, s := range stages {
		if got := r.Counter(stageCallsName, "stage", s).Value(); got != perG {
			t.Fatalf("calls{stage=%s} = %d, want %d", s, got, perG)
		}
	}
	if got := r.Tracer().totalSpans(); got != 8*perG {
		t.Fatalf("tracer total = %d, want %d", got, 8*perG)
	}
}
