package fleet_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"campuslab/internal/core"
	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/fleet"
	"campuslab/internal/traffic"
)

// synthDataset builds a deterministic, linearly separable two-class
// dataset whose decision boundary shifts with the campus index, so
// campus models genuinely differ.
func synthDataset(campus, n int) *features.Dataset {
	d := &features.Dataset{Schema: []string{"rate", "size", "spread"}}
	shift := float64(campus) * 0.4
	for i := 0; i < n; i++ {
		// Deterministic pseudo-noise without shared rand state.
		a := float64((i*2654435761)%1000) / 1000
		b := float64((i*40503+campus*7919)%1000) / 1000
		y := 0
		x := []float64{a, b, a + b}
		if a+0.7*b > 0.8+shift*0.1 {
			y = 1
			x[0] += 0.5 + shift
			x[2] += shift
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// TestRaceConcurrentCampusStreams drives three campuses into one shared
// listener and in-memory store at once — labd's -ingest-listen shape, and
// the one `go test -race` must bless: every frame lands exactly once with
// a unique PacketID, whatever the interleaving, and although each campus's
// clock is hours off the others', a windowed Select on the shared store
// answers what the scan reference and a Scan walk answer.
func TestRaceConcurrentCampusStreams(t *testing.T) {
	st := datastore.NewSharded(4)
	addr := startServer(t, st, fleet.ServerConfig{Workers: 2})

	const perCampus = 600
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i, campus := range []string{"ucsb", "princeton", "columbia"} {
		wg.Add(1)
		go func(i int, campus string) {
			defer wg.Done()
			cl, err := fleet.DialCampus(fleet.ClientConfig{Addr: addr, Campus: campus})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			frames := synthFrames(perCampus, i+1)
			for j := range frames {
				frames[j].TS += time.Duration(2-i) * time.Hour // this campus's clock offset
			}
			stats, err := cl.Stream(&sliceGen{frames: frames}, 64)
			if err != nil {
				errs <- err
				return
			}
			if stats.Stored != perCampus {
				errs <- errStored(stats.Stored)
			}
		}(i, campus)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := st.Stats().Packets; got != 3*perCampus {
		t.Fatalf("store has %d packets, want %d", got, 3*perCampus)
	}
	seen := make(map[datastore.PacketID]bool, 3*perCampus)
	var walk []time.Duration
	st.Scan(func(p *datastore.StoredPacket) bool {
		if seen[p.ID] {
			t.Errorf("duplicate PacketID %d", p.ID)
		}
		seen[p.ID] = true
		walk = append(walk, p.TS)
		return true
	})
	if len(seen) != 3*perCampus {
		t.Fatalf("%d unique ids, want %d", len(seen), 3*perCampus)
	}
	const k = 3 * perCampus / 12
	for lo := 0; lo+k < len(walk); lo += k {
		from, to := walk[lo], walk[lo+k]
		want := 0
		for _, ts := range walk {
			if ts >= from && ts < to {
				want++
			}
		}
		expr := fmt.Sprintf("ts >= %dns && ts < %dns", int64(from), int64(to))
		f := datastore.MustFilter(expr)
		st.SetScanQuery(true)
		ref := st.Select(f, 0)
		st.SetScanQuery(false)
		if got := st.Select(f, 0); len(got) != want || !reflect.DeepEqual(got, ref) {
			t.Fatalf("Select(%q) = %d rows, the scan reference %d, a Scan walk %d", expr, len(got), len(ref), want)
		}
	}
}

type errStored uint64

func (e errStored) Error() string { return "short store" }

// TestRaceCoordinatorDuringStreaming runs a federated round while every
// campus is still actively streaming into its store — the coordinator
// reads (featurize = store scans) race against live ingest appends. The
// round must complete and the test must stay race-detector clean.
func TestRaceCoordinatorDuringStreaming(t *testing.T) {
	const campuses = 3
	stores := make([]*datastore.Store, campuses)
	campusList := make([]core.Campus, campuses)
	names := []string{"ucsb", "princeton", "columbia"}
	var wg sync.WaitGroup
	errs := make(chan error, campuses)
	for i := 0; i < campuses; i++ {
		i := i
		stores[i] = datastore.NewSharded(2)
		addr := startServer(t, stores[i], fleet.ServerConfig{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := fleet.DialCampus(fleet.ClientConfig{Addr: addr, Campus: names[i]})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if _, err := cl.Stream(&sliceGen{frames: synthFrames(2000, i+5)}, 32); err != nil {
				errs <- err
			}
		}()
		campusList[i] = core.Campus{
			Name: names[i],
			// The featurizer stands in for FromPackets but still scans the
			// live store, so coordinator reads overlap ingest writes.
			Features: func() *features.Dataset {
				stores[i].Scan(func(p *datastore.StoredPacket) bool { return p.ID != 0 })
				return synthDataset(i, 300)
			},
		}
	}

	res, err := core.RunFederated(campusList, core.DevelopConfig{
		Target: traffic.LabelDNSAmp, ForestTrees: 4, ForestDepth: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FederatedRecall) != campuses {
		t.Fatalf("round produced %d federated cells", len(res.FederatedRecall))
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, st := range stores {
		if got := st.Stats().Packets; got != 2000 {
			t.Fatalf("campus %d store has %d packets, want 2000", i, got)
		}
	}
}
