// Command bench is campuslab's benchmark: five workloads over the paper's
// Figure 1 (campus as data source and testbed) and Figure 2 (development
// loop), measured end to end and, in a traced run, layer by layer.
//
//	bench -workload NAME -seed N [-seconds S] [-trace 0|1] [-trace-out FILE]
//	bench -selfcheck N
//
// One run builds the workload's inputs from the seed, sets up, runs
// fixed-size rounds of a one-client closed loop until the time is up,
// verifies the outputs, and prints one JSON object as its last line. See
// README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed = 1
	// heldOutSeed is never used while tuning a change; a claimed gain
	// must also hold on it (README, "Seeds").
	heldOutSeed = 7919
	// setupReps set-ups are timed per run and the median reported: one
	// set-up is a single sample of a noisy host.
	setupReps = 3
	// minFreeBytes of scratch space are required at full scale.
	minFreeBytes = 2 << 30
)

// workload is one benchmark scenario. All of them are closed loops with a
// single client: collection blocks on the durable ack, an analyst waits
// for a query, a developer for a loop, and the fast loop is replayed flat
// out.
type workload interface {
	// setup builds the inputs from the seed and whatever state the timed
	// rounds start from. It is called setupReps times; each call replaces
	// what the previous one built.
	setup(e *env) error
	// round does one fixed-size unit of timed work and reports what came
	// out. With a tracer it runs the same work as spans around the public
	// stages; the fingerprint must not change.
	round(e *env, tr *tracer) (roundResult, error)
	// layers turns one traced round's span totals (raw seconds) into
	// per-layer metric values.
	layers(rt roundTotals, r roundResult) map[string]float64
	// probe measures, in traced runs only, single-layer costs that no
	// span around a round can isolate. Times it stores are calibrated.
	probe(e *env, m map[string]float64) error
	// verify checks the outputs outside the timed section and returns how
	// many ops failed the check. Metrics it stores are calibrated.
	verify(e *env, m map[string]float64) (failed int, err error)
	// tailPct is the percentile op_tail_ms reports for this workload.
	tailPct() float64
	// sizes describes the inputs for the run's info line.
	sizes() map[string]int
	close()
}

// workloadNames lists the workloads in BENCHMARK.json's order.
var workloadNames = []string{"collect_tiered", "fleet_stream", "query_mix", "develop_loop", "fastloop_replay"}

// newWorkload makes a fresh workload by name, or nil.
func newWorkload(name string) workload {
	switch name {
	case "collect_tiered":
		return &collectTiered{}
	case "fleet_stream":
		return &fleetStream{}
	case "query_mix":
		return &queryMix{}
	case "develop_loop":
		return &developLoop{}
	case "fastloop_replay":
		return &fastloopReplay{}
	}
	return nil
}

// roundResult is what one round produced.
type roundResult struct {
	secs   float64   // wall seconds of the timed steps
	ops    int       // ops completed
	failed int       // ops that errored, were refused or were shed
	groups []float64 // wall seconds of each op-group, in order
	fp     uint64    // fingerprint of the outputs
	// counts are the round's exact per-layer counts, by metric name.
	counts map[string]float64
}

// env is what a workload gets from the harness.
type env struct {
	seed    int64
	scale   float64
	clk     *hostClock
	scratch string
	dirs    int
	// sabotage names a deliberate fault for the harness's own tests:
	// the run must then report failures and exit non-zero.
	sabotage string
}

// dir makes a fresh directory under the run's scratch root.
func (e *env) dir(prefix string) (string, error) {
	e.dirs++
	d := filepath.Join(e.scratch, fmt.Sprintf("%s-%d", prefix, e.dirs))
	return d, os.MkdirAll(d, 0o755)
}

// timed runs fn in its own clock window and returns calibrated seconds.
func (e *env) timed(fn func() error) (float64, error) {
	w := e.clk.open()
	err := fn()
	wall, speed := w.close()
	return wall * speed, err
}

// config is one run's command line.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	traceOut   string
	scale      float64
	scratchDir string
	sabotage   string
}

// report is everything one run measured.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Fingerprint map[string]string  `json:"fingerprint"`
	Sizes       map[string]int     `json:"sizes"`
	Rounds      int                `json:"rounds"`
	RoundLog    []roundLog         `json:"round_log"`
	OutputHash  string             `json:"output_hash"`
	TraceHash   string             `json:"trace_hash,omitempty"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer"`
	Attempted   int                `json:"-"`
	Failed      int                `json:"-"`
	Problems    []string           `json:"problems,omitempty"`
}

// roundLog is one measured round as the info line shows it.
type roundLog struct {
	Traced bool    `json:"traced,omitempty"`
	Ops    int     `json:"ops"`
	Secs   float64 `json:"secs"`  // wall seconds of the timed steps
	Speed  float64 `json:"speed"` // host speed over the round
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// roundRec is one measured round with what the harness saw around it.
type roundRec struct {
	roundResult
	traced     bool
	speed      float64 // host speed over the round
	mallocs    uint64
	allocBytes uint64
	totals     roundTotals // traced rounds only
}

// run executes one workload once.
func run(cfg config) (*report, error) {
	wl := newWorkload(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	scratch, fsType, cleanup, err := openScratch(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	e := &env{seed: cfg.seed, scale: cfg.scale, clk: newHostClock(), scratch: scratch, sabotage: cfg.sabotage}
	defer func() { wl.close() }()
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
	}

	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from a fresh workload and a collected heap, or
		// the resident peak would depend on when the collector last ran.
		wl.close()
		wl = newWorkload(cfg.workload)
		runtime.GC()
		w := e.clk.open()
		if err := wl.setup(e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		wall, speed := w.close()
		setups = append(setups, wall*speed)
		rawSetups = append(rawSetups, wall)
	}
	rep.Sizes = wl.sizes()
	rep.EndToEnd["setup_s"] = median(setups)
	rep.PerLayer["raw.setup_s"] = median(rawSetups)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload)
	}
	recs, err := measure(e, wl, cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.EndToEnd["peak_rss_mb"] = peakRSSMB()
	traced := summarise(rep, wl, recs)
	layer := rep.PerLayer
	layer["host.speed"] = mean(e.clk.speeds)
	layer["host.speed_cv"] = cv(e.clk.speeds)
	if traced {
		if err := wl.probe(e, layer); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", cfg.workload, err)
		}
	}

	failed, err := wl.verify(e, layer)
	if err != nil {
		rep.Problems = append(rep.Problems, "verify: "+err.Error())
		failed = max(failed, 1)
	}
	rep.Failed += failed
	layer["failed_frac"] = ratio(float64(rep.Failed), float64(rep.Attempted))

	rep.Fingerprint = map[string]string{
		"nproc":          strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":     strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":             runtime.Version(),
		"commit":         commit(),
		"scratch_fs":     fsType,
		"wal_fsync":      "interval",
		"host_speed":     strconv.FormatFloat(layer["host.speed"], 'f', 4, 64),
		"nominal_kernel": fmt.Sprintf("crc %.0f/s, chase %.0f/s", nominalCRCRate, nominalChaseRate),
	}
	if cfg.traceOut != "" && tr != nil {
		if err := tr.writeFile(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// openScratch makes the run's one temp root and returns how to remove it.
// The root also goes away on SIGINT and SIGTERM.
func openScratch(cfg config) (dir, fsType string, cleanup func(), err error) {
	parent, err := scratchParent(cfg.scratchDir)
	if err != nil {
		return "", "", nil, err
	}
	fsType, free, err := statFS(parent)
	if err != nil {
		return "", "", nil, err
	}
	if need := uint64(float64(minFreeBytes) * min(cfg.scale, 1)); free < need {
		return "", "", nil, fmt.Errorf("scratch %s has %d MiB free, need %d MiB", parent, free>>20, need>>20)
	}
	sweepStale(parent)
	dir, err = os.MkdirTemp(parent, fmt.Sprintf("%s%d-", scratchPrefix, os.Getpid()))
	if err != nil {
		return "", "", nil, err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			os.RemoveAll(dir)
			os.Exit(130)
		case <-done:
		}
	}()
	return dir, fsType, func() {
		signal.Stop(sigc)
		close(done)
		os.RemoveAll(dir)
	}, nil
}

// measure runs round 0, which warms caches, pools and the heap and is
// not kept, and then rounds until cfg.seconds have passed, at least two.
// With a tracer, untraced and traced rounds alternate so that both see the
// same host. The first and last records frame the process-level counters.
func measure(e *env, wl workload, cfg config, tr *tracer) ([]roundRec, error) {
	var recs []roundRec
	var deadline time.Time
	for i := 0; ; i++ {
		if i == 1 {
			runtime.GC()
			deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		}
		if n := len(recs); n >= 2 {
			// Stop when less than half of another round fits.
			last := time.Duration(recs[n-1].secs * float64(time.Second))
			if time.Until(deadline) < last/2 {
				return recs, nil
			}
		}
		var rtr *tracer
		if i > 0 && i%2 == 0 {
			rtr = tr
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w := e.clk.open()
		rtr.begin("bench.round", i)
		r, err := wl.round(e, rtr)
		rtr.end()
		_, speed := w.close()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		totals := rtr.roundTotals()
		if i == 0 {
			continue
		}
		runtime.ReadMemStats(&m1)
		recs = append(recs, roundRec{
			roundResult: r, traced: rtr != nil, speed: speed, totals: totals,
			mallocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		})
	}
}

// summarise turns the measured rounds into metrics: end-to-end ones from
// the untraced rounds only, per-layer counts from the last round, and span
// times as medians over the traced rounds. It reports whether any round
// was traced.
func summarise(rep *report, wl workload, recs []roundRec) (traced bool) {
	var rates, rawRates, groups, allocs, allocBytes, untracedSecs, tracedSecs, coverage []float64
	layerVals := map[string][]float64{}
	first := recs[0]
	for _, rec := range recs {
		rep.Attempted += rec.ops + rec.failed
		rep.Failed += rec.failed
		if rec.fp != first.fp {
			// Same inputs, different outputs: nothing this round did counts.
			rep.Failed += rec.ops
			rep.Problems = append(rep.Problems, fmt.Sprintf("round output %016x differs from %016x", rec.fp, first.fp))
		}
		if rec.ops == 0 {
			continue
		}
		rep.RoundLog = append(rep.RoundLog, roundLog{rec.traced, rec.ops, rec.secs, rec.speed})
		cal := rec.secs * rec.speed
		if rec.traced {
			tracedSecs = append(tracedSecs, cal)
			for name, raw := range wl.layers(rec.totals, rec.roundResult) {
				layerVals[name] = append(layerVals[name], calibrate(name, raw, rec.speed))
			}
			var self float64
			for l, s := range rec.totals.self {
				if l != "bench" {
					self += s
				}
			}
			coverage = append(coverage, ratio(self, rec.secs))
			rep.TraceHash = fmt.Sprintf("%016x", rec.fp)
			continue
		}
		untracedSecs = append(untracedSecs, cal)
		rates = append(rates, float64(rec.ops)/cal)
		rawRates = append(rawRates, float64(rec.ops)/rec.secs)
		for _, g := range rec.groups {
			groups = append(groups, g*rec.speed*1e3)
		}
		allocs = append(allocs, float64(rec.mallocs)/float64(rec.ops))
		allocBytes = append(allocBytes, float64(rec.allocBytes)/float64(rec.ops))
	}
	rep.Rounds = len(recs)
	rep.OutputHash = fmt.Sprintf("%016x", first.fp)
	e2e := rep.EndToEnd
	e2e["ops_per_s"] = median(rates)
	e2e["op_p50_ms"] = percentile(groups, 50)
	e2e["op_tail_ms"] = percentile(groups, wl.tailPct())
	e2e["allocs_per_op"] = median(allocs)

	layer := rep.PerLayer
	for name, v := range recs[len(recs)-1].counts {
		layer[name] = v
	}
	for name, vs := range layerVals {
		layer[name] = median(vs)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layer["raw.ops_per_s"] = median(rawRates)
	layer["proc.rounds"] = float64(len(recs))
	layer["proc.gc_cycles"] = float64(ms.NumGC)
	layer["proc.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	layer["proc.heap_live_mb"] = float64(ms.HeapAlloc) / 1e6
	// Bytes per op are MB per million ops.
	layer["proc.alloc_mb_per_mop"] = median(allocBytes)
	if len(tracedSecs) > 0 {
		layer["trace.overhead_frac"] = median(tracedSecs)/median(untracedSecs) - 1
		layer["trace.self_time_coverage"] = median(coverage)
	}
	return len(tracedSecs) > 0
}

// final is the driver-facing last line: end-to-end metrics from an
// untraced run, per-layer metrics from a traced one.
func (rep *report) final(trace bool) result {
	res := result{Correct: rep.Failed == 0 && len(rep.Problems) == 0, Attempted: rep.Attempted, Failed: rep.Failed}
	if trace {
		res.Metrics = tagged(perLayer, rep.PerLayer)
	} else {
		res.Metrics = tagged(endToEnd, rep.EndToEnd)
	}
	return res
}

// scratchPrefix starts the name of every run's temp root; the owner's pid
// follows it.
const scratchPrefix = "campuslab-bench-"

// scratchParent picks the directory the run's temp root is made in. The
// durable workloads write a WAL, checkpoints and segments; on the
// sandbox's disk a 6 MB buffered write takes anywhere from 1.5 to 25 ms
// and an fsync far longer, which buries the program's own cost, so the
// default is memory-backed /dev/shm when that is a writable tmpfs and the
// checkout's .bench_build otherwise. The fingerprint says which it was.
func scratchParent(flagDir string) (string, error) {
	if flagDir != "" {
		return flagDir, os.MkdirAll(flagDir, 0o755)
	}
	const shm = "/dev/shm"
	if fs, _, err := statFS(shm); err == nil && fs == "tmpfs" {
		if probe, err := os.MkdirTemp(shm, scratchPrefix+"probe-"); err == nil {
			os.Remove(probe)
			return shm, nil
		}
	}
	dir := filepath.Join(".bench_build", "scratch")
	return dir, os.MkdirAll(dir, 0o755)
}

// sweepStale removes temp roots whose owning process is gone (a run that
// was killed outright cannot clean up after itself, and on /dev/shm its
// files would hold memory).
func sweepStale(parent string) {
	ents, err := os.ReadDir(parent)
	if err != nil {
		return
	}
	for _, ent := range ents {
		rest, ok := strings.CutPrefix(ent.Name(), scratchPrefix)
		if !ok {
			continue
		}
		pid, err := strconv.Atoi(rest[:max(strings.IndexByte(rest, '-'), 0)])
		if err != nil {
			continue
		}
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); os.IsNotExist(err) {
			os.RemoveAll(filepath.Join(parent, ent.Name()))
		}
	}
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// statFS names the filesystem under path and its free bytes.
func statFS(path string) (string, uint64, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "", 0, fmt.Errorf("statfs %s: %w", path, err)
	}
	names := map[int64]string{
		0xEF53: "ext2/ext3/ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	name, ok := names[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("0x%x", st.Type)
	}
	return name, st.Bavail * uint64(st.Bsize), nil
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var cfg config
	var trace int
	var selfcheck int
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, fmt.Sprintf("input seed (%d is held out: not for tuning)", heldOutSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to run measured rounds")
	flag.IntVar(&trace, "trace", 0, "1 = alternate traced rounds and print per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans here as JSON lines")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrink every input by this factor (tests)")
	flag.StringVar(&cfg.scratchDir, "scratch", "", "parent of the run's temp root (default /dev/shm if it is a tmpfs, else .bench_build/scratch)")
	flag.StringVar(&cfg.sabotage, "sabotage", "", "break the run on purpose: drop-batch or wrong-reference (harness tests)")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run two alternating sets of N runs per workload and compare them")
	flag.Parse()
	cfg.trace = trace != 0

	if selfcheck > 0 {
		os.Exit(selfCheck(selfcheck, cfg))
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := printReport(rep, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if rep.Failed > 0 || len(rep.Problems) > 0 {
		os.Exit(1)
	}
}

// printReport writes the info line (fingerprint, sizes, every metric
// measured) and then the result line.
func printReport(rep *report, trace bool) error {
	info, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	last, err := json.Marshal(rep.final(trace))
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", info, last)
	return err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
