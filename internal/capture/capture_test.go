package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"campuslab/internal/traffic"
)

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

// TestPcapRefusesOversizeRecord: a record header that claims more than
// libpcap's largest snaplen is refused as malformed before its body is
// allocated, even when the file's own snaplen (0) disables that check.
func TestPcapRefusesOversizeRecord(t *testing.T) {
	for _, capLen := range []uint32{64 << 20, 0xFFFFFFFF} {
		file := make([]byte, 60) // global header, one record header, 20 bytes
		binary.LittleEndian.PutUint32(file[0:4], pcapMagicNanos)
		binary.LittleEndian.PutUint32(file[20:24], linkTypeEther)
		binary.LittleEndian.PutUint32(file[24+8:24+12], capLen)
		binary.LittleEndian.PutUint32(file[24+12:24+16], capLen)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewPcapReader(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		err = r.Next(&rec)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errBadPcap) {
			t.Errorf("caplen %#x: err = %v, want errBadPcap", capLen, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("caplen %#x: reading a 60-byte file allocated %d bytes", capLen, grew)
		}
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

// runLoadModelLinear is RunLoadModel as it was before the departure heap:
// every arrival rescans the whole ring for finished packets. It is the
// reference the heap must reproduce exactly.
func runLoadModelLinear(gen traffic.Generator, cfg LoadModelConfig) LoadModelResult {
	if cfg.Consumers <= 0 {
		cfg.Consumers = 1
	}
	var res LoadModelResult
	var bytes uint64
	freeAt := make([]time.Duration, cfg.Consumers)
	var queue []time.Duration
	var lastTS time.Duration
	var f traffic.Frame
	for gen.Next(&f) {
		now := f.TS
		lastTS = now
		keep := queue[:0]
		for _, d := range queue {
			if d > now {
				keep = append(keep, d)
			}
		}
		queue = keep
		res.Offered++
		bytes += uint64(len(f.Data))
		if len(queue) >= cfg.RingSize {
			res.Dropped++
			continue
		}
		best := 0
		for i := 1; i < cfg.Consumers; i++ {
			if freeAt[i] < freeAt[best] {
				best = i
			}
		}
		start := max(now, freeAt[best])
		depart := start + cfg.ServicePerPacket + time.Duration(len(f.Data))*cfg.ServicePerKB/1024
		freeAt[best] = depart
		queue = append(queue, depart)
		res.Captured++
		res.MaxDepth = max(res.MaxDepth, len(queue))
	}
	if lastTS > 0 {
		res.OfferedGbps = float64(bytes*8) / lastTS.Seconds() / 1e9
	}
	return res
}

// TestLoadModelMatchesLinearRetire: retiring departures from a heap gives
// the same result as rescanning the ring, across ring sizes, consumer
// counts and per-KB costs — the last two are what make departures leave
// out of arrival order. Campus frames vary in size, so a per-KB cost
// varies per packet.
func TestLoadModelMatchesLinearRetire(t *testing.T) {
	gens := map[string]func() traffic.Generator{
		"constant": func() traffic.Generator { return NewConstantRate(40, 800, 2*time.Millisecond) },
		"campus": func() traffic.Generator {
			return traffic.NewCampus(traffic.Profile{FlowsPerSecond: 3000, Duration: 40 * time.Millisecond, Seed: 5})
		},
	}
	for name, gen := range gens {
		for _, ring := range []int{1, 7, 64, 512} {
			for _, consumers := range []int{1, 2, 5} {
				for _, perKB := range []time.Duration{0, 154 * time.Nanosecond, 3 * time.Microsecond, 20 * time.Microsecond} {
					cfg := LoadModelConfig{RingSize: ring, ServicePerPacket: 120 * time.Nanosecond, ServicePerKB: perKB, Consumers: consumers}
					got, err := RunLoadModel(gen(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want := runLoadModelLinear(gen(), cfg); got != want {
						t.Errorf("%s %+v: heap %+v, linear rescan %+v", name, cfg, got, want)
					}
				}
			}
		}
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
