// Micro-benchmarks for the parallel offline loop (DESIGN.md §4): sharded
// ingest, concurrent feature extraction, and parallel forest training.
// Each benchmark sweeps worker counts so a single run shows the scaling
// curve; combine with -cpu 1,4 to also vary GOMAXPROCS:
//
//	go test -bench='StoreIngest|FromFlows|FitForest' -benchmem -cpu 1,4
package campuslab_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/ml"
	"campuslab/internal/traffic"
)

// benchFrames synthesizes one labeled benign+attack episode, reused across
// iterations (Frame.Data is owned by the store's copy path, not mutated).
func benchFrames(b *testing.B) []traffic.Frame {
	b.Helper()
	plan := traffic.DefaultPlan(40)
	benign := traffic.NewCampus(traffic.Profile{
		Plan: plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: 8101,
	})
	amp := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(5),
		Start: 600 * time.Millisecond, Duration: 2800 * time.Millisecond, Rate: 800, Seed: 8102,
	})
	return traffic.Collect(traffic.NewMerge(benign, amp), 0)
}

func BenchmarkStoreIngest(b *testing.B) {
	frames := benchFrames(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(framesBytes(frames)))
			for i := 0; i < b.N; i++ {
				st := datastore.New()
				st.AddBatch(frames, workers)
			}
			b.ReportMetric(float64(len(frames)), "pkts")
		})
	}
	// The durability axis: the same ingest through a write-ahead log under
	// each fsync policy, against the no-WAL rows above. "none" isolates
	// the framing/CRC cost, "interval" is the deployed default, "always"
	// is the per-batch-fsync worst case.
	for _, spelling := range []string{"none", "interval", "always"} {
		pol, err := datastore.ParseFsyncPolicy(spelling)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("wal=%v", pol), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(framesBytes(frames)))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, _, err := datastore.Recover(datastore.DurableConfig{
					Dir: b.TempDir(), Fsync: pol, Shards: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := st.AddBatch(frames, 4); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st.CloseWAL()
				b.StartTimer()
			}
			b.ReportMetric(float64(len(frames)), "pkts")
		})
	}
}

func BenchmarkFromFlows(b *testing.B) {
	frames := benchFrames(b)
	plan := traffic.DefaultPlan(40)
	st := datastore.New()
	st.AddBatch(frames, 0)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n = features.FromFlowsWorkers(st, plan.CampusPrefix, workers).Len()
			}
			b.ReportMetric(float64(n), "flows")
		})
	}
}

func BenchmarkFitForest(b *testing.B) {
	// A synthetic dataset sized like the flow datasets the experiments
	// train on, so tree depth and split costs are representative.
	r := rand.New(rand.NewSource(8103))
	d := &features.Dataset{Schema: make([]string, 16)}
	for i := range d.Schema {
		d.Schema[i] = fmt.Sprintf("f%d", i)
	}
	for i := 0; i < 4000; i++ {
		x := make([]float64, 16)
		c := i % 2
		for j := range x {
			x[j] = float64(c)*2 + r.NormFloat64()
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, c)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ml.FitForest(d, 2, ml.ForestConfig{
					Trees: 30, MaxDepth: 10, Seed: 8104, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func framesBytes(frames []traffic.Frame) uint64 {
	var n uint64
	for i := range frames {
		n += uint64(len(frames[i].Data))
	}
	return n
}
