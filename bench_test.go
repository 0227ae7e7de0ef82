// Package campuslab's root benchmarks regenerate every experiment in the
// reproduction index (DESIGN.md §3): one sub-benchmark per registered
// experiment, so the list cannot lag the registry. Each iteration runs the
// full experiment; results print the same rows the tables in
// EXPERIMENTS.md record. Run with:
//
//	go test -bench=Experiments -benchmem           # all of them (minutes)
//	go test -bench='Experiments/E7$' -benchmem     # one
package campuslab_test

import (
	"testing"

	"campuslab/internal/experiments"
)

// BenchmarkExperiments executes one experiment per iteration and reports
// the table size as a sanity signal.
func BenchmarkExperiments(b *testing.B) {
	for _, r := range experiments.All() {
		b.Run(r.ID, func(b *testing.B) {
			b.ReportAllocs()
			var rows int
			for i := 0; i < b.N; i++ {
				tb, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				rows = len(tb.Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}
