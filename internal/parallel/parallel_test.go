package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaults(t *testing.T) {
	if got := Workers(0); got != min(runtime.GOMAXPROCS(0), maxWorkers) {
		t.Errorf("Workers(0) = %d", got)
	}
	if got := Workers(-3); got < 1 {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(maxWorkers + 100); got != maxWorkers {
		t.Errorf("Workers(huge) = %d, want cap %d", got, maxWorkers)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]int32, n)
			For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForSingleWorkerRunsInOrder(t *testing.T) {
	var order []int
	For(50, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path out of order at %d: %v", i, v)
		}
	}
}

func TestForChunksPartition(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		covered := make([]int32, 97)
		ForChunks(len(covered), workers, func(lo, hi int) {
			if lo >= hi {
				t.Error("empty chunk dispatched")
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
}
