package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// selfCheck measures the benchmark's own noise the way the driver judges
// it: two sets, A and B, of n full runs of the same binary per workload,
// run alternately (A first on even seeds, B first on odd ones), run i of
// both sets on seed base+i. For every workload × end-to-end metric it
// prints both medians and quartiles, each set's spread (interquartile
// range over median), how much worse B's median is than A's, and the
// metric's bound. A spread over the bound (set-up time excepted) or a B
// worse than A by more than the bound is a breach and makes the exit code
// 1, as does a count that differs between two runs of one seed.
func selfCheck(n int, cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	breaches := 0
	fmt.Printf("# Benchmark noise\n\n")
	fmt.Printf("Output of `bench -selfcheck %d` (seeds %d..%d, %g s measured per run, scale %g).\n", n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds, cfg.scale)
	fmt.Printf("Sets A and B are the same binary, run alternately. spread = (q3 - q1) / median,\nquartiles as Python's `statistics.quantiles(values, n=4)`.\n")
	printedHost := false
	for _, name := range names {
		var a, b []*report
		started := time.Now()
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(i)
			first, second := &a, &b
			if i%2 == 1 {
				first, second = &b, &a
			}
			for _, set := range []*[]*report{first, second} {
				rep, err := childRun(exe, name, seed, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, seed, err)
					return 2
				}
				*set = append(*set, rep)
			}
		}
		if !printedHost {
			fmt.Printf("\nHost: %s\n", fingerprintLine(a[0].Fingerprint))
			printedHost = true
		}
		speeds := column(slices.Concat(a, b), "host.speed", true)
		fmt.Printf("\n## %s\n\n%d + %d runs in %.0f s; host.speed %.2f..%.2f.\n\n", name, n, n, time.Since(started).Seconds(),
			slices.Min(speeds), slices.Max(speeds))
		fmt.Printf("| metric | unit | bound | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B worse than A | verdict |\n")
		fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
		for _, def := range endToEnd {
			va, vb := column(a, def.Name, false), column(b, def.Name, false)
			qa, qb := quartiles(va), quartiles(vb)
			spreadA, spreadB := ratio(qa[2]-qa[0], qa[1]), ratio(qb[2]-qb[0], qb[1])
			worse := ratio(qb[1]-qa[1], qa[1])
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if def.Name != "setup_s" && max(spreadA, spreadB) > def.Bound {
				verdict = "BREACH: spread"
			}
			if worse > def.Bound {
				verdict = "BREACH: medians"
			}
			if verdict != "ok" {
				breaches++
			} else if def.Name != "setup_s" && max(spreadA, spreadB) > def.Bound/3 {
				verdict = "ok (spread over bound/3)"
			}
			fmt.Printf("| %s | %s | %.0f%% | %s [%s, %s] | %.1f%% | %s [%s, %s] | %.1f%% | %+.1f%% | %s |\n",
				def.Name, def.Unit, def.Bound*100,
				sig(qa[1]), sig(qa[0]), sig(qa[2]), spreadA*100,
				sig(qb[1]), sig(qb[0]), sig(qb[2]), spreadB*100, worse*100, verdict)
		}
		// Counts must repeat exactly between two runs of one seed.
		var drift []string
		for i := range a {
			for _, m := range []string{"write_bytes_per_pkt", "cold_bytes_per_pkt", "failed_frac"} {
				if a[i].PerLayer[m] != b[i].PerLayer[m] {
					drift = append(drift, fmt.Sprintf("%s seed %d: %v vs %v", m, a[i].Seed, a[i].PerLayer[m], b[i].PerLayer[m]))
				}
			}
			if x, y := a[i].EndToEnd["allocs_per_op"], b[i].EndToEnd["allocs_per_op"]; math.Abs(x-y) > 0.001*x {
				drift = append(drift, fmt.Sprintf("allocs_per_op seed %d: %v vs %v", a[i].Seed, x, y))
			}
			if a[i].OutputHash != b[i].OutputHash {
				drift = append(drift, fmt.Sprintf("output hash seed %d: %s vs %s", a[i].Seed, a[i].OutputHash, b[i].OutputHash))
			}
		}
		if len(drift) == 0 {
			fmt.Printf("\nSame-seed runs agree exactly on write_bytes_per_pkt, cold_bytes_per_pkt, failed_frac and the output hash, and within 0.1%% on allocs_per_op.\n")
		} else {
			breaches += len(drift)
			fmt.Printf("\nBREACH: same-seed runs differ: %s\n", strings.Join(drift, "; "))
		}
	}
	fmt.Printf("\n%d breaches.\n", breaches)
	if breaches > 0 {
		return 1
	}
	return 0
}

// childRun executes one untraced run of this binary and parses its info
// line.
func childRun(exe, workload string, seed int64, cfg config) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
	}
	if cfg.scratchDir != "" {
		args = append(args, "-scratch", cfg.scratchDir)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("short output %q", out)
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

func column(reps []*report, metric string, layer bool) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		if layer {
			out[i] = r.PerLayer[metric]
		} else {
			out[i] = r.EndToEnd[metric]
		}
	}
	return out
}

// quartiles returns q1, the median and q3 the way Python's
// statistics.quantiles(x, n=4) does (the exclusive method), which is what
// the driver uses.
func quartiles(x []float64) [3]float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// sig prints four significant digits.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func fingerprintLine(fp map[string]string) string {
	parts := make([]string, 0, len(fp))
	for _, k := range sortedKeys(fp) {
		if k != "host_speed" {
			parts = append(parts, k+"="+fp[k])
		}
	}
	return strings.Join(parts, ", ")
}
