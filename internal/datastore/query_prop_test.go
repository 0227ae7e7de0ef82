package datastore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// genQueryExpr builds random filter expressions biased toward the shapes
// the planner cares about: indexable equality atoms mixed with range
// comparisons, flags, time bounds, negation and disjunction.
func genQueryExpr(r *rand.Rand, depth int) string {
	if depth <= 0 || r.Intn(3) == 0 {
		return genQueryAtom(r)
	}
	switch r.Intn(5) {
	case 0, 1:
		return genQueryExpr(r, depth-1) + " && " + genQueryExpr(r, depth-1)
	case 2:
		return genQueryExpr(r, depth-1) + " || " + genQueryExpr(r, depth-1)
	case 3:
		return "!(" + genQueryExpr(r, depth-1) + ")"
	default:
		return "(" + genQueryExpr(r, depth-1) + ")"
	}
}

var queryAtomLabels = []string{"benign", "dns-amp", "syn-flood"}

func genQueryAtom(r *rand.Rand) string {
	switch r.Intn(10) {
	case 0:
		return []string{"proto == udp", "proto == tcp", "proto == icmp", "proto == 0"}[r.Intn(4)]
	case 1:
		return fmt.Sprintf("dst.port == %d", []int{53, 80, 443, 4053, 0, 70000}[r.Intn(6)])
	case 2:
		return fmt.Sprintf("src.port == %d", r.Intn(70000))
	case 3:
		return "label == " + queryAtomLabels[r.Intn(len(queryAtomLabels))]
	case 4:
		return fmt.Sprintf("link == %d", r.Intn(3))
	case 5:
		return propFlags[r.Intn(len(propFlags))]
	case 6:
		f := propFields[r.Intn(len(propFields))]
		op := propOps[r.Intn(len(propOps))]
		return fmt.Sprintf("%s %s %d", f, op, r.Intn(70000))
	case 7:
		return fmt.Sprintf("ts >= %dms && ts < %dms", 200*r.Intn(8), 200*(8+r.Intn(8)))
	case 8:
		return "src.ip in 10.0.0.0/8"
	default:
		return "dns && dns.qtype == ANY"
	}
}

// TestPlannerScanPropertyEquivalence: for randomized expressions over
// randomized-enough stores, the index-assisted planner must return
// byte-identical results to the serial scan reference at every
// (shards, workers) combination — the query-engine analogue of the
// dataplane's DAG≡scan property test.
func TestPlannerScanPropertyEquivalence(t *testing.T) {
	frames := equivFrames(t)
	shardCases, exprs := []int{1, 4, 16}, 120
	if raceEnabled { // the race gates cover concurrency; one shard count and half the expressions are the budget here
		shardCases, exprs = []int{4}, 60
	}
	for _, shards := range shardCases {
		st := NewSharded(shards)
		st.AddBatch(frames, 4)
		for _, workers := range []int{1, 4} {
			st.SetQueryWorkers(workers)
			r := rand.New(rand.NewSource(int64(1000*shards + workers)))
			indexedHits := 0
			for i := 0; i < exprs; i++ {
				expr := genQueryExpr(r, 3)
				f, err := ParseFilter(expr)
				if err != nil {
					t.Fatalf("generated expression rejected: %q: %v", expr, err)
				}
				limit := 0
				if r.Intn(3) == 0 {
					limit = 1 + r.Intn(20)
				}
				st.SetScanQuery(true)
				want := st.Select(f, limit)
				wantN := st.Count(f)
				st.SetScanQuery(false)
				got := st.Select(f, limit)
				gotN := st.Count(f)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("shards=%d workers=%d: Select(%q, %d) diverged: reference %d pkts, planner %d",
						shards, workers, expr, limit, len(want), len(got))
				}
				if wantN != gotN {
					t.Fatalf("shards=%d workers=%d: Count(%q) diverged: reference %d, planner %d",
						shards, workers, expr, wantN, gotN)
				}
				if f.Indexable() && len(got) > 0 {
					indexedHits++
				}
			}
			if indexedHits == 0 {
				t.Fatalf("shards=%d workers=%d: no indexable expression produced hits — generator too weak", shards, workers)
			}
		}
	}
}
