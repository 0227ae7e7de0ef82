//go:build race

package main

// raceEnabled reports that this binary was built with -race; the workload
// test then skips the learning workloads, which the detector slows past
// -timeout.
const raceEnabled = true
