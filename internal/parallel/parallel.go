// Package parallel is the shared worker-pool substrate of the offline
// development loop: bounded fan-out with deterministic, index-addressed
// output. Every parallel stage in the pipeline (sharded ingest, feature
// extraction, forest training) sizes itself through Workers so one knob —
// plumbed from cmd flags through experiments — controls the whole loop,
// and Workers==1 degenerates to the exact serial execution order.
package parallel

import (
	"runtime"
	"sync"
)

// maxWorkers caps fan-out; beyond this the offline stages are memory- not
// core-bound and extra goroutines only add scheduling noise.
const maxWorkers = 64

// Workers resolves a configured worker count: n itself when positive,
// otherwise GOMAXPROCS, clamped to maxWorkers.
func Workers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxWorkers {
		n = maxWorkers
	}
	if n < 1 {
		n = 1
	}
	return n
}

// For runs fn(i) for every i in [0, n) across at most workers goroutines
// (0 = GOMAXPROCS). Iterations are distributed in contiguous blocks so
// writes into pre-sized slices stay cache-friendly and race-free as long
// as fn(i) touches only index i. With one worker the loop runs inline in
// index order — the serial path, byte-for-byte.
func For(n, workers int, fn func(i int)) {
	ForChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunks splits [0, n) into one contiguous [lo, hi) block per worker
// and runs fn on each block concurrently. It returns when every block is
// done. Workers that would receive an empty block are not started.
func ForChunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
