// Package traffic synthesizes campus network workloads: a benign
// application mix with heavy-tailed flow sizes and a diurnal load curve,
// plus the attack classes the paper's network-automation examples need
// (DNS amplification, SYN flood, port scanning, C&C beaconing).
//
// Every emitted frame carries ground-truth labels — the thing the paper
// says real networks lack ("labelled data ... is largely non-existent",
// §2) and that the simulated campus provides by construction.
package traffic

import (
	"fmt"
	"time"
)

// Label is the ground-truth class of a frame.
type Label uint8

// Ground-truth traffic classes.
const (
	LabelBenign Label = iota
	LabelDNSAmp
	LabelSYNFlood
	LabelPortScan
	LabelBeacon
	NumLabels
)

var labelNames = [NumLabels]string{"benign", "dns-amp", "syn-flood", "port-scan", "beacon"}

// String returns the label name.
func (l Label) String() string {
	if int(l) < len(labelNames) {
		return labelNames[l]
	}
	return fmt.Sprintf("label-%d", uint8(l))
}

// ParseLabel maps a label name back to its Label.
func ParseLabel(s string) (Label, error) {
	for i, n := range labelNames {
		if n == s {
			return Label(i), nil
		}
	}
	return 0, fmt.Errorf("traffic: unknown label %q", s)
}

// Direction classifies a frame relative to the campus edge.
type Direction uint8

// Frame directions at the campus border tap.
const (
	DirInbound  Direction = iota // from the Internet into campus
	dirOutbound                  // from campus to the Internet
	dirInternal                  // both endpoints on campus
)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case DirInbound:
		return "in"
	case dirOutbound:
		return "out"
	default:
		return "internal"
	}
}

// Frame is one generated packet with its ground truth.
type Frame struct {
	TS    time.Duration // offset from scenario start
	Data  []byte        // full Ethernet frame
	Dir   Direction
	Label Label
	// Actor reports that the frame's *source* is a malicious actor (the
	// scanner, the abused resolver, the infected host) as opposed to a
	// victim's response that merely belongs to an attack episode. Source
	// attribution tasks (scan detection) train on this.
	Actor  bool
	FlowID uint64 // generator-scoped flow identifier
}

// Generator produces a time-ordered stream of frames. Next returns false
// when the stream is exhausted. Implementations are single-goroutine.
type Generator interface {
	// Next fills f with the next frame in timestamp order. The Data
	// slice is owned by the caller after return.
	Next(f *Frame) bool
}

// Collect drains g into a slice, up to max frames (0 = unlimited).
// Intended for tests and small scenarios; large scenarios should stream.
func Collect(g Generator, max int) []Frame {
	var out []Frame
	var f Frame
	for g.Next(&f) {
		out = append(out, f)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Stats accumulates summary statistics over a frame stream.
type Stats struct {
	Frames   int
	Bytes    int64
	ByLabel  [NumLabels]int
	ByDir    [3]int
	Duration time.Duration
}

// Observe folds one frame into s.
func (s *Stats) Observe(f *Frame) {
	s.Frames++
	s.Bytes += int64(len(f.Data))
	if int(f.Label) < len(s.ByLabel) {
		s.ByLabel[f.Label]++
	}
	if int(f.Dir) < len(s.ByDir) {
		s.ByDir[f.Dir]++
	}
	if f.TS > s.Duration {
		s.Duration = f.TS
	}
}

// OfferedRate returns the average offered load in bits/s over the stream.
func (s *Stats) OfferedRate() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Bytes*8) / s.Duration.Seconds()
}
