// Command campuslab is the experiment driver and data-store query tool.
//
// Usage:
//
//	campuslab experiment all            # run every experiment (E1-E15)
//	campuslab experiment E5 -md        # run one, render markdown
//	campuslab query -pcap f.pcap -expr 'dns && dns.qtype == ANY' [-limit 20]
//	campuslab develop                   # run the Figure 2 development loop and print the rules
//	campuslab fleet [-tcp]              # federated development round across 3 campuses
//	campuslab list                      # list experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"campuslab/internal/capture"
	"campuslab/internal/core"
	"campuslab/internal/datastore"
	"campuslab/internal/experiments"
	"campuslab/internal/obs"
	"campuslab/internal/traffic"
)

// writeMetrics dumps the process metrics snapshot (Prometheus text
// format) to path; "-" writes to stdout, "" is a no-op.
func writeMetrics(path string) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return obs.Default.WriteText(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("campuslab: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "develop":
		err = cmdDevelop(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "list":
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: campuslab <command> [flags]

commands:
  experiment <id|all> [-md]   run experiments (see 'campuslab list')
  query -pcap F -expr E       query a pcap through the data store
  develop [-target L]        run the development loop, print operator rules
  fleet [-tcp]                federated development round across 3 campuses
  list                        list experiment ids`)
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	md := fs.Bool("md", false, "render markdown instead of aligned text")
	workers := fs.Int("workers", 0, "offline-loop worker count (0 = GOMAXPROCS, 1 = serial; identical tables either way)")
	metricsOut := fs.String("metrics-out", "", "write a Prometheus-text metrics snapshot to this file after the run (- = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	experiments.SetWorkers(*workers)
	if fs.NArg() < 1 {
		return fmt.Errorf("experiment: need an id or 'all'")
	}
	var runners []experiments.Runner
	if fs.Arg(0) == "all" {
		runners = experiments.All()
	} else {
		r, ok := experiments.Find(fs.Arg(0))
		if !ok {
			return fmt.Errorf("experiment: unknown id %q (try 'campuslab list')", fs.Arg(0))
		}
		runners = []experiments.Runner{r}
	}
	for _, r := range runners {
		start := time.Now()
		tb, err := r.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		if *md {
			fmt.Print(tb.Markdown())
		} else {
			fmt.Println(tb.String())
		}
		log.Printf("%s completed in %v", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return writeMetrics(*metricsOut)
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	pcapPath := fs.String("pcap", "", "pcap file to load")
	expr := fs.String("expr", "ip", "filter expression")
	limit := fs.Int("limit", 20, "max results to print (0 = all)")
	stats := fs.Bool("stats", false, "also print store statistics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pcapPath == "" {
		return fmt.Errorf("query: -pcap is required")
	}
	f, err := os.Open(*pcapPath)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := capture.NewPcapReader(f)
	if err != nil {
		return err
	}
	st := datastore.New()
	// Records come off the wire unlabeled; their capture links ride beside
	// the frames so the link index stays exact.
	var rec capture.Record
	frames := make([]traffic.Frame, 0, 4096)
	links := make([]uint16, 0, 4096)
	flush := func() error {
		_, err := st.AddBatchLinks(frames, links, 0)
		frames, links = frames[:0], links[:0]
		return err
	}
	for {
		if err := r.Next(&rec); err != nil {
			break
		}
		frames = append(frames, traffic.Frame{TS: rec.TS, Data: rec.Data})
		links = append(links, rec.Link)
		if len(frames) == cap(frames) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	matches, err := st.SelectExpr(*expr, *limit)
	if err != nil {
		return err
	}
	total, err := st.CountExpr(*expr)
	if err != nil {
		return err
	}
	fmt.Printf("%d packets match %q (showing %d)\n", total, *expr, len(matches))
	for i := range matches {
		sp := &matches[i]
		fmt.Printf("  #%-7d %-12s %v (%dB)\n", sp.ID, sp.TS.Round(time.Microsecond), sp.Summary.Tuple, sp.Summary.WireLen)
	}
	if *stats {
		s := st.Stats()
		fmt.Printf("store: %d packets, %d flows, %s data + %s index over %v\n",
			s.Packets, s.Flows, sizeof(s.DataBytes), sizeof(s.IndexBytes), s.Span.Round(time.Millisecond))
	}
	return nil
}

func sizeof(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func cmdDevelop(args []string) error {
	fs := flag.NewFlagSet("develop", flag.ExitOnError)
	target := fs.String("target", "dns-amp", "attack class to learn")
	depth := fs.Int("depth", 4, "deployable tree depth")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "offline-loop worker count (0 = GOMAXPROCS, 1 = serial; identical output either way)")
	metricsOut := fs.String("metrics-out", "", "write a Prometheus-text metrics snapshot to this file after the run (- = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	label, err := traffic.ParseLabel(*target)
	if err != nil {
		return err
	}
	plan := traffic.DefaultPlan(40)
	lab, err := core.NewLab(core.Config{Name: "cli", Plan: plan, Workers: *workers})
	if err != nil {
		return err
	}
	benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: *seed})
	attack := traffic.NewAttack(traffic.AttackConfig{
		Kind: label, Plan: plan, Start: 600 * time.Millisecond,
		Duration: 3 * time.Second, Seed: *seed + 1,
	})
	if _, err := lab.Collect(traffic.NewMerge(benign, attack)); err != nil {
		return err
	}
	dep, err := lab.Develop(core.DevelopConfig{Target: label, DeployDepth: *depth, Seed: *seed + 2})
	if err != nil {
		return err
	}
	fmt.Printf("black box:   %d trees, %d nodes, test accuracy %.3f\n",
		dep.BlackBox.NumTrees(), dep.BlackBox.TotalNodes(), dep.BlackBoxTestAccuracy)
	fmt.Printf("deployable:  depth %d, %d nodes, fidelity %.3f, test accuracy %.3f\n",
		dep.Extraction.Tree.Depth(), dep.Extraction.Tree.NumNodes(), dep.Extraction.Fidelity, dep.TestAccuracy)
	fmt.Printf("compiled:    %d rules, %d TCAM entries\n\n", len(dep.DropProgram.Rules), dep.DropProgram.TCAMCost())
	fmt.Println("operator rules (road-map step iv):")
	for _, r := range dep.Rules {
		fmt.Println("  " + r)
	}
	return writeMetrics(*metricsOut)
}
