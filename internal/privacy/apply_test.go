package privacy

import (
	"bytes"
	"testing"
	"unsafe"

	"campuslab/internal/packet"
)

// applyMix is a frame sequence covering every Apply outcome: payloads over
// and under the 8-byte hash, no payload, a frame that does not parse, a
// non-IP frame and a jumbo frame bigger than a chunk's own-buffer cut.
// Repeated, it crosses several chunk boundaries.
func applyMix(t testing.TB) [][]byte {
	t.Helper()
	// An ARP frame (not IP: passed through) and half an IPv4 header.
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	truncated := genFrame(t, "10.1.2.3", "10.4.5.6", 40)[:14+12]
	base := [][]byte{
		genFrame(t, "10.1.2.3", "93.184.216.34", 116), // 170 B, the bench's frame size
		genFrame(t, "10.1.2.4", "93.184.216.35", 3),   // payload under the hash's 8 bytes
		genFrame(t, "10.1.2.5", "93.184.216.36", 0),
		truncated,
		arp,
		genFrame(t, "10.1.2.6", "93.184.216.37", anonOwnFrame+100), // jumbo: its own buffer
		genFrame(t, "10.1.2.7", "93.184.216.38", 1400),
	}
	var mix [][]byte
	for len(mix)*300 < 4*anonChunk {
		mix = append(mix, base...)
	}
	return mix
}

// TestApplyOutputsNeverOverlap: Apply cuts its outputs from a shared chunk,
// so every output must own the bytes up to its capacity, hold what a fresh
// Enforcer returns for that frame alone, and keep them when a later frame is
// applied or when its neighbour is appended to — under every payload mode,
// including a hash appended to a payload under and over 8 bytes.
func TestApplyOutputsNeverOverlap(t *testing.T) {
	mix := applyMix(t)
	for _, pol := range []Policy{
		{Name: "anon-all", Scope: AnonAll},
		{Name: "strip", Scope: AnonAll, Payload: PayloadStrip},
		{Name: "hash", Scope: AnonAll, Payload: payloadHash},
	} {
		t.Run(pol.Name, func(t *testing.T) {
			e, err := NewEnforcer(pol, []byte("arena"))
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]byte, len(mix))
			refused := make([]bool, len(mix))
			for i, f := range mix {
				ref, _ := NewEnforcer(pol, []byte("arena"))
				out, err := ref.Apply(f)
				want[i], refused[i] = bytes.Clone(out), err != nil
			}
			if !refused[3] || refused[4] {
				t.Fatalf("the truncated frame must be refused and the ARP frame passed: %v %v", refused[3], refused[4])
			}
			outs := make([][]byte, len(mix))
			for i, f := range mix {
				in := bytes.Clone(f)
				out, err := e.Apply(f)
				if (err != nil) != refused[i] {
					t.Fatalf("frame %d: err = %v, want refused=%v", i, err, refused[i])
				}
				if !bytes.Equal(f, in) {
					t.Fatalf("frame %d: Apply modified its input", i)
				}
				if cap(out) != len(out) {
					t.Fatalf("frame %d: output len %d cap %d, want cap == len", i, len(out), cap(out))
				}
				outs[i] = out
			}
			checkAll := func(when string) {
				t.Helper()
				for i := range outs {
					if !bytes.Equal(outs[i], want[i]) {
						t.Fatalf("%s: output %d (%d B) differs from the frame's own Apply", when, i, len(outs[i]))
					}
				}
			}
			checkAll("after the sequence")
			for i := 1; i < len(outs); i++ {
				checkDisjoint(t, outs[i-1], outs[i])
			}
			for i := range outs {
				grown := append(outs[i], bytes.Repeat([]byte{0xee}, 16)...)
				if !bytes.Equal(grown[:len(want[i])], want[i]) {
					t.Fatalf("append to output %d rewrote its own bytes", i)
				}
			}
			checkAll("after appending to every output")
		})
	}
}

// checkDisjoint fails if two slices' [0, cap) ranges share a byte.
func checkDisjoint(t *testing.T, a, b []byte) {
	t.Helper()
	if cap(a) == 0 || cap(b) == 0 {
		return
	}
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	if a0 < b0+uintptr(cap(b)) && b0 < a0+uintptr(cap(a)) {
		t.Fatalf("outputs overlap: [%#x, +%d) and [%#x, +%d)", a0, cap(a), b0, cap(b))
	}
}

// TestApplyAllocsAmortised: a 170-byte frame (fleet_stream's size) is copied
// into the current chunk, so Apply allocates once per chunk — about one per
// 385 frames — where it made one buffer per frame before. The ceiling is
// 0.05 allocations per frame: one per 20 frames fails it.
func TestApplyAllocsAmortised(t *testing.T) {
	e, err := NewEnforcer(Policy{Scope: AnonAll}, []byte("arena"))
	if err != nil {
		t.Fatal(err)
	}
	frame := genFrame(t, "10.1.2.3", "93.184.216.34", 116)
	if len(frame) != 170 {
		t.Fatalf("frame is %d bytes, want 170", len(frame))
	}
	const perRun = 1000
	var s packet.Summary
	if err := packet.NewFlowParser().Parse(frame, &s); err != nil || !s.Tuple.SrcIP.Is4() {
		t.Fatalf("test frame does not parse as IPv4: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for range perRun {
			if _, err := e.Apply(frame); err != nil {
				t.Fatal(err)
			}
		}
	})
	per := allocs / perRun
	if per > 0.05 {
		t.Errorf("Apply: %.4f allocations per 170 B frame, ceiling 0.05", per)
	}
	t.Logf("%.4f allocations per 170 B frame", per)
}
