package main

import (
	"flag"
	"fmt"
	"net"
	"time"

	"campuslab/internal/core"
	"campuslab/internal/fleet"
	"campuslab/internal/traffic"
)

// cmdFleet runs one federated development round across three simulated
// campuses. By default each campus collects in process; -tcp instead
// stands up a fleet ingest server per campus on loopback and streams the
// same scenarios through the binary protocol — the round's output is
// byte-identical either way (the store's content is independent of how
// batches arrived).
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	tcp := fs.Bool("tcp", false, "stream campus traffic over loopback TCP instead of collecting in process")
	seed := fs.Int64("seed", 1601, "scenario seed base")
	trees := fs.Int("trees", 12, "per-campus forest size")
	depth := fs.Int("depth", 8, "per-campus forest depth")
	workers := fs.Int("workers", 0, "training worker count (0 = GOMAXPROCS; identical output either way)")
	showLog := fs.Bool("log", false, "print the coordinator's transition log")
	metricsOut := fs.String("metrics-out", "", "write a Prometheus-text metrics snapshot to this file after the run (- = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs := []core.CampusSpec{
		{Name: "ucsb", HostsPerDept: 30, FlowsPerSecond: 50, AttackRate: 500, StartHour: 14, Seed: *seed},
		{Name: "princeton", HostsPerDept: 45, FlowsPerSecond: 70, AttackRate: 300, StartHour: 17, Seed: *seed + 1},
		{Name: "columbia", HostsPerDept: 25, FlowsPerSecond: 40, AttackRate: 800, StartHour: 17, Seed: *seed + 2},
	}
	campuses, err := fleetFill(specs, *tcp, *workers)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := core.RunFederated(campuses, core.DevelopConfig{
		Target: traffic.LabelPortScan, ForestTrees: *trees, ForestDepth: *depth,
		Seed: *seed + 100, Workers: *workers,
	})
	if err != nil {
		return err
	}
	transport := "in-process"
	if *tcp {
		transport = "loopback TCP"
	}
	fmt.Printf("federated round over %d campuses (%s transport)\n\n", len(res.Campuses), transport)
	fmt.Printf("%-12s", "train\\test")
	for _, c := range res.Campuses {
		fmt.Printf("  %10s", c)
	}
	fmt.Println()
	for i, c := range res.Campuses {
		fmt.Printf("%-12s", c)
		for j := range res.Campuses {
			fmt.Printf("  %10.3f", res.Recall[i][j])
		}
		fmt.Println()
	}
	fmt.Printf("%-12s", "federated")
	for j := range res.Campuses {
		fmt.Printf("  %10.3f", res.FederatedRecall[j])
	}
	fmt.Println()
	fmt.Printf("%-12s", "pooled")
	for j := range res.Campuses {
		fmt.Printf("  %10.3f", res.PooledRecall[j])
	}
	fmt.Println()
	fmt.Printf("\nmerged ensemble: %d trees, %d bytes\n", res.Merged.NumTrees(), len(res.MergedBytes))
	if *showLog {
		fmt.Println()
		for _, line := range res.Log {
			fmt.Println("  " + line)
		}
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	return writeMetrics(*metricsOut)
}

// fleetFill builds each campus's store: locally via Lab.Collect, or by
// round-tripping the identical generator through a loopback fleet
// server.
func fleetFill(specs []core.CampusSpec, tcp bool, workers int) ([]core.Campus, error) {
	campuses := make([]core.Campus, len(specs))
	for i, spec := range specs {
		lab, gen, err := core.BuildCampusScenario(spec, traffic.LabelPortScan)
		if err != nil {
			return nil, fmt.Errorf("campus %s: %w", spec.Name, err)
		}
		if tcp {
			srv, err := fleet.NewServer(fleet.ServerConfig{Store: lab.Store(), Workers: workers})
			if err != nil {
				return nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			go srv.Serve(ln)
			cl, err := fleet.DialCampus(fleet.ClientConfig{Addr: ln.Addr().String(), Campus: spec.Name})
			if err != nil {
				return nil, err
			}
			if _, err := cl.Stream(gen, 0); err != nil {
				return nil, fmt.Errorf("campus %s: %w", spec.Name, err)
			}
			cl.Close()
			ln.Close()
			srv.Close()
		} else if _, err := lab.Collect(gen); err != nil {
			return nil, fmt.Errorf("campus %s: %w", spec.Name, err)
		}
		campuses[i] = core.Campus{Name: spec.Name, Store: lab.Store()}
	}
	return campuses, nil
}
