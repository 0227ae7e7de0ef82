package experiments

// workerCount is the offline-loop fan-out every experiment uses for
// sharded ingest, feature extraction and forest training. 0 means
// GOMAXPROCS; 1 forces the serial path. cmd/campuslab plumbs its -workers
// flag here so the whole experiment suite runs at one setting.
var workerCount int

// SetWorkers configures the experiment suite's worker count
// (0 = GOMAXPROCS, 1 = serial). Tables are identical at any setting —
// only wall-clock changes.
func SetWorkers(n int) { workerCount = n }

// workers returns the raw configured value for passing into Workers
// fields that resolve 0 themselves.
func workers() int { return workerCount }
