package capture

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"campuslab/internal/traffic"
)

func TestRingBasicFIFO(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 5; i++ {
		if !r.push(Record{TS: time.Duration(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	var rec Record
	for i := 0; i < 5; i++ {
		if !r.pop(&rec) {
			t.Fatalf("pop %d failed", i)
		}
		if rec.TS != time.Duration(i) {
			t.Fatalf("pop %d = %v, want %v", i, rec.TS, time.Duration(i))
		}
	}
	if r.pop(&rec) {
		t.Error("pop from empty ring succeeded")
	}
}

func TestRingDropAccounting(t *testing.T) {
	r := newRing(8)
	pushed, dropped := 0, 0
	for i := 0; i < 20; i++ {
		if r.push(Record{}) {
			pushed++
		} else {
			dropped++
		}
	}
	if pushed != 8 || dropped != 12 {
		t.Errorf("pushed/dropped = %d/%d, want 8/12", pushed, dropped)
	}
	if r.droppedCount() != 12 || r.pushedCount() != 8 {
		t.Errorf("counters = %d/%d", r.droppedCount(), r.pushedCount())
	}
	// Drain one, push must succeed again.
	var rec Record
	r.pop(&rec)
	if !r.push(Record{}) {
		t.Error("push after drain failed")
	}
}

func TestRingCapacityRounding(t *testing.T) {
	if newRing(5).capacity() != 8 || newRing(8).capacity() != 8 || newRing(9).capacity() != 16 || newRing(0).capacity() != 8 {
		t.Error("capacity rounding wrong")
	}
}

func TestRingSPSCConcurrent(t *testing.T) {
	r := newRing(1024)
	const n = 200000
	var got uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var rec Record
		var next time.Duration
		for int(got)+int(r.droppedCount()) < n || r.size() > 0 {
			if r.pop(&rec) {
				// FIFO within delivered subsequence: timestamps increase.
				if rec.TS < next {
					t.Errorf("out of order: %v < %v", rec.TS, next)
					return
				}
				next = rec.TS
				got++
			}
		}
	}()
	for i := 0; i < n; i++ {
		r.push(Record{TS: time.Duration(i)})
	}
	wg.Wait()
	if got+r.droppedCount() != n {
		t.Errorf("accounting broken: delivered %d + dropped %d != %d", got, r.droppedCount(), n)
	}
}

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{TS: 1500 * time.Millisecond, Data: []byte("frame-one")},
		{TS: 2 * time.Second, Data: bytes.Repeat([]byte{0xab}, 1500)},
		{TS: 2*time.Second + 17*time.Nanosecond, Data: []byte{}},
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.numWritten() != 3 {
		t.Errorf("Written = %d", w.numWritten())
	}
	r, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		var rec Record
		if err := r.Next(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.TS != recs[i].TS {
			t.Errorf("record %d TS = %v, want %v", i, rec.TS, recs[i].TS)
		}
		if !bytes.Equal(rec.Data, recs[i].Data) {
			t.Errorf("record %d data mismatch", i)
		}
	}
	var rec Record
	if err := r.Next(&rec); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestPcapSnaplen(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewPcapWriter(&buf, 100)
	rec := Record{TS: time.Second, Data: bytes.Repeat([]byte{1}, 500)}
	if err := w.Write(&rec); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, _ := NewPcapReader(&buf)
	var got Record
	if err := r.Next(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 100 {
		t.Errorf("snapped len = %d, want 100", len(got.Data))
	}
}

func TestPcapRejectsGarbage(t *testing.T) {
	if _, err := NewPcapReader(bytes.NewReader(make([]byte, 24))); !errors.Is(err, errBadPcap) {
		t.Errorf("want ErrBadPcap, got %v", err)
	}
	if _, err := NewPcapReader(bytes.NewReader([]byte("short"))); !errors.Is(err, errBadPcap) {
		t.Errorf("want ErrBadPcap, got %v", err)
	}
}

func TestPcapPropertyRoundTrip(t *testing.T) {
	fn := func(payloads [][]byte, tsNanos []uint32) bool {
		var buf bytes.Buffer
		w, _ := NewPcapWriter(&buf, 0)
		n := len(payloads)
		if len(tsNanos) < n {
			n = len(tsNanos)
		}
		for i := 0; i < n; i++ {
			rec := Record{TS: time.Duration(tsNanos[i]), Data: payloads[i]}
			if err := w.Write(&rec); err != nil {
				return false
			}
		}
		w.Flush()
		r, err := NewPcapReader(&buf)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var rec Record
			if err := r.Next(&rec); err != nil {
				return false
			}
			if rec.TS != time.Duration(tsNanos[i]) || !bytes.Equal(rec.Data, payloads[i]) {
				return false
			}
		}
		var rec Record
		return errors.Is(r.Next(&rec), io.EOF)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEngineLosslessContract(t *testing.T) {
	sink := &countingSink{}
	e, err := newEngine(engineConfig{Taps: 4, RingSize: 1024, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	e.start(context.Background())
	const perTap = 50000
	var wg sync.WaitGroup
	for tap := 0; tap < 4; tap++ {
		wg.Add(1)
		go func(tap int) {
			defer wg.Done()
			data := make([]byte, 200)
			for i := 0; i < perTap; i++ {
				e.inject(tap, time.Duration(i), data)
			}
		}(tap)
	}
	wg.Wait()
	if err := e.stop(); err != nil {
		t.Fatal(err)
	}
	st := e.stats()
	if st.Injected+st.Dropped != 4*perTap {
		t.Errorf("offered accounting: %d + %d != %d", st.Injected, st.Dropped, 4*perTap)
	}
	if st.Delivered != st.Injected {
		t.Errorf("delivered %d != injected %d (lost in flight)", st.Delivered, st.Injected)
	}
	if sink.Records.Load() != st.Delivered {
		t.Errorf("sink records %d != delivered %d", sink.Records.Load(), st.Delivered)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := newEngine(engineConfig{Taps: 0, Sink: &countingSink{}}); err == nil {
		t.Error("accepted zero taps")
	}
	if _, err := newEngine(engineConfig{Taps: 1}); err == nil {
		t.Error("accepted nil sink")
	}
}

func TestEngineSinkErrorPropagates(t *testing.T) {
	boom := errors.New("disk full")
	e, _ := newEngine(engineConfig{Taps: 1, RingSize: 64, Sink: sinkFunc(func(*Record) error { return boom })})
	e.start(context.Background())
	e.inject(0, 0, []byte("x"))
	time.Sleep(10 * time.Millisecond)
	if err := e.stop(); !errors.Is(err, boom) {
		t.Errorf("want sink error, got %v", err)
	}
}

func TestLoadModelLosslessUnderCapacity(t *testing.T) {
	// 10 Gbps of 1000B frames = 1.25 Mpps; 120ns/pkt consumer handles
	// ~8.3 Mpps — easily lossless.
	gen := NewConstantRate(10, 1000, 10*time.Millisecond)
	res, err := RunLoadModel(gen, LoadModelConfig{RingSize: 4096, ServicePerPacket: 120 * time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Errorf("dropped %d packets under capacity", res.Dropped)
	}
	if res.OfferedGbps < 9 || res.OfferedGbps > 11 {
		t.Errorf("OfferedGbps = %v, want ~10", res.OfferedGbps)
	}
}

func TestLoadModelDropsOverCapacity(t *testing.T) {
	// 100 Gbps of 500B frames = 25 Mpps against an ~8.3 Mpps consumer:
	// heavy loss is inevitable.
	gen := NewConstantRate(100, 500, 5*time.Millisecond)
	res, err := RunLoadModel(gen, LoadModelConfig{RingSize: 4096, ServicePerPacket: 120 * time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.LossRate() < 0.5 {
		t.Errorf("loss rate %v, want heavy loss", res.LossRate())
	}
	if res.Captured+res.Dropped != res.Offered {
		t.Error("offered accounting broken")
	}
}

func TestLoadModelMoreConsumersHelp(t *testing.T) {
	run := func(consumers int) float64 {
		gen := NewConstantRate(40, 500, 5*time.Millisecond)
		res, err := RunLoadModel(gen, LoadModelConfig{
			RingSize: 2048, ServicePerPacket: 120 * time.Nanosecond, Consumers: consumers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.LossRate()
	}
	if one, four := run(1), run(4); four >= one {
		t.Errorf("4 consumers (loss %v) not better than 1 (loss %v)", four, one)
	}
}

func TestLoadModelBiggerRingAbsorbsBursts(t *testing.T) {
	// Bursty campus traffic at moderate load: a larger ring should lose
	// no more than a smaller one.
	loss := func(ring int) float64 {
		gen := traffic.NewCampus(traffic.Profile{FlowsPerSecond: 3000, Duration: 2 * time.Second, Seed: 11})
		res, err := RunLoadModel(gen, LoadModelConfig{RingSize: ring, ServicePerPacket: 15 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		return res.LossRate()
	}
	small, big := loss(64), loss(8192)
	if big > small {
		t.Errorf("bigger ring lost more: %v > %v", big, small)
	}
}

func TestLoadModelValidation(t *testing.T) {
	gen := NewConstantRate(1, 1000, time.Millisecond)
	if _, err := RunLoadModel(gen, LoadModelConfig{RingSize: 0, ServicePerPacket: time.Nanosecond}); err == nil {
		t.Error("accepted zero ring")
	}
	if _, err := RunLoadModel(gen, LoadModelConfig{RingSize: 16}); err == nil {
		t.Error("accepted zero service cost")
	}
}

func TestMeter(t *testing.T) {
	m := newMeter(0.5)
	// 1000-byte packets every millisecond => 1000 pps, 8 Mbit/s.
	for i := 1; i <= 100; i++ {
		m.observe(time.Duration(i)*time.Millisecond, 1000)
	}
	pps, bps := m.rates()
	if pps < 900 || pps > 1100 {
		t.Errorf("pps = %v, want ~1000", pps)
	}
	if bps < 7e6 || bps > 9e6 {
		t.Errorf("bps = %v, want ~8M", bps)
	}
	pkts, bytes := m.totals()
	if pkts != 100 || bytes != 100_000 {
		t.Errorf("totals = %d/%d", pkts, bytes)
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := newRing(4096)
	var rec Record
	data := make([]byte, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.push(Record{TS: time.Duration(i), Data: data})
		r.pop(&rec)
	}
}

func BenchmarkPcapWrite(b *testing.B) {
	w, _ := NewPcapWriter(io.Discard, 0)
	rec := Record{TS: time.Second, Data: make([]byte, 800)}
	b.ReportAllocs()
	b.SetBytes(800)
	for i := 0; i < b.N; i++ {
		if err := w.Write(&rec); err != nil {
			b.Fatal(err)
		}
	}
}
