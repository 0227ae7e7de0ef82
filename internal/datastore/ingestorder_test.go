package datastore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"campuslab/internal/traffic"
)

// skewedFrames copies frames re-stamped 1 µs apart from offset on: one
// writer's clock.
func skewedFrames(frames []traffic.Frame, offset time.Duration) []traffic.Frame {
	out := append([]traffic.Frame(nil), frames...)
	for i := range out {
		out[i].TS = offset + time.Duration(i)*time.Microsecond
	}
	return out
}

// TestConcurrentWritersKeepTimeIndex feeds one in-memory store from two
// writers at once whose clocks are an hour apart, as two campuses' taps
// feed one labd. Ingest numbers, stamps and applies every frame in one
// ordered section, so however the writers interleave the time index holds:
// every shard slab ascends in ID with TS non-decreasing, a windowed
// planner Count and Select answer what the scan reference and a Scan walk
// answer, and on a tiered store nothing hot sits below the seal watermark
// and the segments stay in time order.
func TestConcurrentWritersKeepTimeIndex(t *testing.T) {
	base := equivFrames(t)
	if len(base) > 4000 {
		base = base[:4000]
	}
	trials := 3
	if raceEnabled {
		trials = 1
	}
	batches := func(s *Store, frames []traffic.Frame) error {
		for lo := 0; lo < len(frames); lo += 50 {
			if _, err := s.AddBatch(frames[lo:min(lo+50, len(frames))], 1); err != nil {
				return err
			}
		}
		return nil
	}
	perFrame := func(s *Store, frames []traffic.Frame) error {
		for i := range frames {
			if _, err := s.IngestFrame(&frames[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, leg := range []struct {
		name   string
		tiered bool
		ingest func(*Store, []traffic.Frame) error
	}{{"AddBatch", false, batches}, {"IngestFrame", false, perFrame}, {"tiered", true, batches}} {
		t.Run(leg.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				s := NewSharded(1)
				if leg.tiered {
					s.fsys = newMemFS(int64(trial))
					if err := s.EnableTiering(aggressiveTier("/tier")); err != nil {
						t.Fatal(err)
					}
				}
				var wg sync.WaitGroup
				errs := make(chan error, 2)
				for w := 0; w < 2; w++ {
					frames := skewedFrames(base, time.Duration(w)*time.Hour)
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs <- leg.ingest(s, frames)
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				if got, want := s.Stats().Packets+s.TierStats().ColdPackets, uint64(2*len(base)); got != want {
					t.Fatalf("trial %d: store holds %d rows, want %d", trial, got, want)
				}
				checkTimeIndex(t, s, trial)
			}
		})
	}
}

// checkTimeIndex asserts the orders the planner's time index relies on and
// compares windowed queries, cut at every k-th row of a Scan walk, against
// the scan reference and the walk itself.
func checkTimeIndex(t *testing.T, s *Store, trial int) {
	t.Helper()
	var sealed PacketID
	if tr := s.tier.Load(); tr != nil {
		tr.mu.RLock()
		sorted, segs := tr.tsSorted, len(tr.segs)
		tr.mu.RUnlock()
		sealed = PacketID(tr.sealedBelow.Load())
		if segs == 0 {
			t.Fatalf("trial %d: tiered store sealed nothing: %+v", trial, s.TierStats())
		}
		if !sorted {
			t.Fatalf("trial %d: segments out of time order (tsSorted false)", trial)
		}
	}
	for si, sh := range s.shards {
		for i := range sh.packets {
			p := &sh.packets[i]
			if p.ID < sealed {
				t.Fatalf("trial %d: shard %d row %d: hot ID %d below the seal watermark %d", trial, si, i, p.ID, sealed)
			}
			if q := &sh.packets[max(i-1, 0)]; i > 0 && (p.ID <= q.ID || p.TS < q.TS) {
				t.Fatalf("trial %d: shard %d row %d: (%v, %d) after (%v, %d)", trial, si, i, p.TS, p.ID, q.TS, q.ID)
			}
		}
	}
	var walk []time.Duration
	s.Scan(func(sp *StoredPacket) bool {
		walk = append(walk, sp.TS)
		return true
	})
	k := max(len(walk)/24, 1)
	for lo := 0; lo+k < len(walk); lo += k {
		from, to := walk[lo], walk[lo+k]
		want := 0
		for _, ts := range walk {
			if ts >= from && ts < to {
				want++
			}
		}
		for _, rest := range []string{"", " && ip"} {
			expr := fmt.Sprintf("ts >= %dns && ts < %dns%s", int64(from), int64(to), rest)
			got := selectBoth(t, s, expr, 0)
			if rest == "" && len(got) != want {
				t.Fatalf("trial %d: Select(%q) = %d rows, a Scan walk finds %d", trial, expr, len(got), want)
			}
		}
	}
}
