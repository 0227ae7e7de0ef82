// Command labd runs a campus lab as a long-lived daemon: it collects a
// rolling synthetic scenario into the data store, develops a deployable
// model, and serves a line-oriented TCP protocol for operators and tools:
//
//	STATS                  store and switch statistics
//	QUERY <expr>           filter-language query (first 10 matches)
//	RULES                  the deployed model's operator rules
//	LABELS                 ground-truth class counts
//	METRICS                process metrics snapshot (Prometheus text)
//	QUIT                   close the connection
//
// The daemon is hardened for unattended operation: concurrent connections
// are capped (excess dialers get "ERR busy" instead of an unbounded
// goroutine pile), each connection must issue a command within an idle
// window or it is closed, a panicking command handler costs one "ERR
// internal error" line rather than the process, and SIGTERM drains
// in-flight connections for a bounded grace period before forcing them
// closed.
//
// With -http the daemon additionally serves an HTTP diagnostics
// endpoint: /metrics (Prometheus text format), /debug/pprof/* and a
// /debug/trace JSON dump of recent slow-loop spans.
//
// With -ingest-listen the daemon is a fleet node: remote campuses stream
// labeled packet batches into its store over the binary ingest protocol
// (see internal/fleet), riding the same admission and WAL path as local
// collection.
//
// Usage: labd -listen 127.0.0.1:7077 [-seed 3] [-max-conns 64] [-drain 10s] [-http 127.0.0.1:7078] [-ingest-listen 127.0.0.1:7079]
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/core"
	"campuslab/internal/dataplane"
	"campuslab/internal/datastore"
	"campuslab/internal/features"
	"campuslab/internal/fleet"
	"campuslab/internal/ml"
	"campuslab/internal/obs"
	"campuslab/internal/traffic"
)

// Daemon-level metrics. Per-command counters carry the command label and
// are pre-registered per handler in newServer; unknown commands share one
// unlabeled counter so hostile input cannot mint unbounded series.
var (
	obsConns       = obs.Default.Counter("campuslab_labd_connections_total")
	obsBusyRejects = obs.Default.Counter("campuslab_labd_busy_rejects_total")
	obsUnknownCmds = obs.Default.Counter("campuslab_labd_unknown_commands_total")
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("labd: ")
	var (
		listen    = flag.String("listen", "127.0.0.1:7077", "TCP listen address")
		seed      = flag.Int64("seed", 3, "scenario seed")
		maxConns  = flag.Int("max-conns", 64, "max concurrent client connections (0 = unlimited)")
		drain     = flag.Duration("drain", 10*time.Second, "grace period for in-flight connections on shutdown")
		httpAddr  = flag.String("http", "", "HTTP diagnostics listen address (/metrics, /healthz, /debug/pprof, /debug/trace); empty = disabled")
		dataDir   = flag.String("data", "", "durable data directory (snapshot + write-ahead log); empty = in-memory only")
		fsyncStr  = flag.String("fsync", "interval", "WAL durability policy: always | interval | none (with -data)")
		tierDir   = flag.String("tier-dir", "", "cold-tier segment directory; empty = hot tier only")
		tierHot   = flag.Uint64("tier-hot", 500_000, "hot-tier packet cap before history seals to cold segments (with -tier-dir)")
		tierComp  = flag.Duration("tier-compact", time.Minute, "cold-tier compaction sweep interval, 0 = disabled (with -tier-dir)")
		tierCache = flag.Int64("tier-cache", 0, "cache budget in bytes for cold-tier queries (decoded blocks and segment directories share it), 0 = disabled (with -tier-dir)")
		ingestLn  = flag.String("ingest-listen", "", "binary fleet-ingest listen address (remote campuses stream batches here); empty = disabled")
	)
	flag.Parse()

	fsync, err := datastore.ParseFsyncPolicy(*fsyncStr)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := newServer(daemonConfig{
		Seed: *seed, DataDir: *dataDir, Fsync: fsync,
		Tier: datastore.TierPolicy{Dir: *tierDir, HotPackets: *tierHot, CacheBytes: *tierCache},
	})
	if err != nil {
		log.Fatal(err)
	}
	if *tierDir != "" && *tierComp > 0 {
		stop := srv.lab.Store().StartTierCompactor(*tierComp)
		defer stop()
	}
	if *maxConns > 0 {
		srv.sem = make(chan struct{}, *maxConns)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s (store: %d packets, model: %d rules)",
		ln.Addr(), srv.lab.Store().Stats().Packets, len(srv.dep.Rules))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *ingestLn != "" {
		fsrv, err := fleet.NewServer(fleet.ServerConfig{Store: srv.lab.Store()})
		if err != nil {
			log.Fatal(err)
		}
		fln, err := net.Listen("tcp", *ingestLn)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("fleet ingest on %s", fln.Addr())
		go func() {
			<-ctx.Done()
			fln.Close()
			fsrv.Close()
		}()
		go func() {
			if err := fsrv.Serve(fln); err != nil {
				log.Printf("fleet ingest: %v", err)
			}
		}()
	}
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		registerStoreGauges(srv.lab)
		log.Printf("http diagnostics on http://%s/metrics", hln.Addr())
		go serveHTTP(ctx, hln, srv)
	}
	serve(ctx, ln, srv, *drain)
	if err := srv.drainDurable(); err != nil {
		log.Printf("final checkpoint: %v", err)
	}
}

// drainDurable is the durability half of SIGTERM shutdown: flush unsynced
// WAL appends, write a final checkpoint, and detach the log. A daemon
// killed mid-drain still loses nothing — the flushed WAL replays on the
// next boot, from the newest checkpoint's position either way.
func (s *server) drainDurable() error {
	if s.dataDir == "" {
		return nil
	}
	st := s.lab.Store()
	if err := st.FlushWAL(); err != nil {
		return fmt.Errorf("wal flush: %w", err)
	}
	if err := st.CheckpointDir(s.dataDir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := st.CloseWAL(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	log.Printf("final checkpoint written to %s", s.dataDir)
	return nil
}

// serve accepts connections until ctx is cancelled, then drains: no new
// connections, in-flight ones get the grace period to finish, stragglers
// are force-closed.
func serve(ctx context.Context, ln net.Listener, srv *server, grace time.Duration) {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			log.Printf("accept: %v", err)
			continue
		}
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.handle(conn)
		}()
	}
	log.Print("shutting down; draining connections")
	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		n := srv.closeAll()
		log.Printf("drain timeout; force-closed %d connections", n)
		<-done
	}
	log.Print("shutdown complete")
}

// handler serves one protocol command; rest is the argument tail.
type handler func(s *server, w *bufio.Writer, rest string)

// server holds the lab state shared across connections. The store and
// deployment are built once at startup; queries are read-only.
type server struct {
	lab *core.Lab
	dep *core.Deployment
	// dataDir is the durable directory ("" = in-memory only).
	dataDir string
	// lifecycle is the model state machine /healthz reports.
	lifecycle *control.Lifecycle
	handlers  map[string]handler
	// idle is the per-command read deadline: a connection that stays
	// silent this long is closed.
	idle time.Duration
	// sem caps concurrent connections (nil = unlimited).
	sem chan struct{}
	// cmdCounters are the pre-registered per-command metrics.
	cmdCounters map[string]*obs.Counter

	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// daemonConfig parameterizes daemon construction.
type daemonConfig struct {
	Seed int64
	// DataDir enables durable operation: the store is recovered from its
	// snapshot + WAL and every acked batch is logged ("" = in-memory).
	DataDir string
	Fsync   datastore.FsyncPolicy
	// Tier enables the cold tier: history past Tier.HotPackets seals into
	// compressed columnar segments under Tier.Dir (empty Dir = hot only).
	Tier datastore.TierPolicy
}

func newServer(dc daemonConfig) (*server, error) {
	seed := dc.Seed
	plan := traffic.DefaultPlan(40)
	var st *datastore.Store
	var recovered bool
	if dc.DataDir != "" {
		var rs datastore.RecoveryStats
		var err error
		st, rs, err = datastore.Recover(datastore.DurableConfig{Dir: dc.DataDir, Fsync: dc.Fsync, Tier: dc.Tier})
		if err != nil {
			return nil, err
		}
		recovered = rs.SnapshotPackets+rs.WALPackets > 0
		if recovered {
			log.Printf("recovered %s: %d hot packets the checkpoint covered + %d acked after it, from %d WAL records (torn=%v)",
				dc.DataDir, rs.SnapshotPackets, rs.WALPackets, rs.WALRecords, rs.Torn)
		}
	} else if dc.Tier.Dir != "" {
		st = datastore.NewSharded(0)
		if err := st.EnableTiering(dc.Tier); err != nil {
			return nil, err
		}
	}
	if dc.Tier.Dir != "" {
		if ts := st.TierStats(); ts.Segments > 0 {
			log.Printf("cold tier %s: %d segments, %d packets", dc.Tier.Dir, ts.Segments, ts.ColdPackets)
		}
	}
	lab, err := core.NewLab(core.Config{Name: "labd", Plan: plan, Store: st})
	if err != nil {
		return nil, err
	}
	// A recovered store already holds labeled traffic — develop straight
	// from it instead of re-collecting the boot scenario on top.
	if !recovered {
		benign := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 4 * time.Second, Seed: seed})
		amp := traffic.NewAttack(traffic.AttackConfig{
			Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(5),
			Start: 600 * time.Millisecond, Duration: 3 * time.Second, Rate: 800, Seed: seed + 1,
		})
		if _, err := lab.Collect(traffic.NewMerge(benign, amp)); err != nil {
			return nil, err
		}
	}
	dep, err := lab.Develop(core.DevelopConfig{Target: traffic.LabelDNSAmp, Seed: seed + 2})
	if err != nil {
		return nil, err
	}
	// Road-test the deployment on a short held-out replay before serving.
	// Besides a sanity shake-down, this populates the operational series
	// (dataplane verdicts, control-loop escalations/mitigations) so the
	// first METRICS scrape shows the deployed model working.
	loop, err := control.NewLoop(control.LoopConfig{
		Tier: control.TierControlPlane, Program: dep.AlertProgram,
		Model: dep.Extraction.Tree, Threshold: 0.9,
		Window: time.Second, MinEvidence: 30,
	})
	if err != nil {
		return nil, err
	}
	heldB := traffic.NewCampus(traffic.Profile{Plan: plan, FlowsPerSecond: 60, Duration: 2 * time.Second, Seed: seed + 3})
	heldA := traffic.NewAttack(traffic.AttackConfig{
		Kind: traffic.LabelDNSAmp, Plan: plan, Victim: plan.Host(6),
		Start: 300 * time.Millisecond, Duration: 1500 * time.Millisecond, Rate: 800, Seed: seed + 4,
	})
	if _, err := loop.Replay(traffic.NewMerge(heldB, heldA)); err != nil {
		return nil, err
	}
	lc, err := newDaemonLifecycle(lab, dep, dc)
	if err != nil {
		return nil, err
	}
	s := &server{
		lab:       lab,
		dep:       dep,
		dataDir:   dc.DataDir,
		lifecycle: lc,
		idle:      2 * time.Minute,
		conns:     make(map[net.Conn]struct{}),
	}
	s.handlers = map[string]handler{
		"STATS":   (*server).cmdStats,
		"QUERY":   (*server).cmdQuery,
		"RULES":   (*server).cmdRules,
		"LABELS":  (*server).cmdLabels,
		"METRICS": (*server).cmdMetrics,
	}
	s.cmdCounters = make(map[string]*obs.Counter, len(s.handlers))
	for name := range s.handlers {
		s.cmdCounters[name] = obs.Default.Counter("campuslab_labd_commands_total", "cmd", name)
	}
	return s, nil
}

// newDaemonLifecycle wires the model state machine around the deployment:
// the live bundle is the extracted tree, retrains refit against the
// store's current labeled traffic, candidates must round-trip and compile
// before activation, and the last-known-good bundle is kept in memory
// for rollback. /healthz reports its state; operators drive Tick from
// their own drift windows.
func newDaemonLifecycle(lab *core.Lab, dep *core.Deployment, dc daemonConfig) (*control.Lifecycle, error) {
	bundle, err := dep.Extraction.Tree.MarshalBinary()
	if err != nil {
		return nil, err
	}
	window := func() *features.Dataset {
		return features.FromPackets(lab.Store(), 1.0).BinaryRelabel(traffic.LabelDNSAmp)
	}
	lc, err := control.NewLifecycle(control.LifecycleConfig{
		Retrain: func() ([]byte, error) {
			tree, err := ml.FitTree(window(), 2, ml.TreeConfig{MaxDepth: 4, Seed: dc.Seed})
			if err != nil {
				return nil, err
			}
			return tree.MarshalBinary()
		},
		Validate: func(b []byte) (bool, error) {
			tree, err := ml.UnmarshalTree(b)
			if err != nil {
				return false, nil // malformed candidate: reject, not fatal
			}
			_, err = dataplane.Compile(tree, features.PacketSchema, dataplane.CompileConfig{
				Name: "labd-candidate", DropClasses: []int{1}, MinConfidence: 0.9,
			})
			return err == nil, nil
		},
		Activate: func([]byte) (*features.Dataset, error) { return window(), nil },
	}, bundle, 0)
	if err != nil {
		return nil, err
	}
	lc.SetClassifier(dep.Extraction.Tree)
	return lc, nil
}

// track registers a live connection for shutdown force-close; the returned
// func unregisters it.
func (s *server) track(conn net.Conn) func() {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}
}

// closeAll force-closes every tracked connection, returning how many.
func (s *server) closeAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
	return len(s.conns)
}

func (s *server) handle(conn net.Conn) {
	defer conn.Close()
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			obsBusyRejects.Inc()
			conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			fmt.Fprintln(conn, "ERR busy: connection limit reached")
			return
		}
	}
	defer s.track(conn)()
	obsConns.Inc()
	sc := bufio.NewScanner(conn)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	fmt.Fprintln(w, "campuslab labd ready; commands: STATS QUERY RULES LABELS METRICS QUIT")
	w.Flush()
	for {
		// Refresh the deadline per command, not per connection: a client
		// may stay connected indefinitely as long as it keeps talking.
		conn.SetReadDeadline(time.Now().Add(s.idle))
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		cmd, rest, _ := strings.Cut(line, " ")
		if strings.EqualFold(cmd, "QUIT") {
			fmt.Fprintln(w, "bye")
			w.Flush()
			return
		}
		s.dispatch(w, strings.ToUpper(cmd), rest)
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dispatch runs one command handler with panic containment: a bug in a
// handler costs this command an error line, not the daemon.
func (s *server) dispatch(w *bufio.Writer, cmd, rest string) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("panic in %s handler: %v", cmd, r)
			fmt.Fprintln(w, "ERR internal error")
		}
	}()
	switch h, ok := s.handlers[cmd]; {
	case ok:
		if c := s.cmdCounters[cmd]; c != nil {
			c.Inc()
		}
		h(s, w, rest)
	case cmd == "":
	default:
		obsUnknownCmds.Inc()
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
}

func (s *server) cmdStats(w *bufio.Writer, _ string) {
	st := s.lab.Store().Stats()
	fmt.Fprintf(w, "packets=%d flows=%d events=%d data_bytes=%d index_bytes=%d span=%v",
		st.Packets, st.Flows, st.Events, st.DataBytes, st.IndexBytes, st.Span.Round(time.Millisecond))
	if st.Segments > 0 || st.ColdPackets > 0 {
		fmt.Fprintf(w, " cold_packets=%d cold_bytes=%d segments=%d",
			st.ColdPackets, st.ColdBytes, st.Segments)
	}
	ts := s.lab.Store().TierStats()
	if ts.CacheHits > 0 || ts.CacheMisses > 0 || ts.CacheEntries > 0 {
		fmt.Fprintf(w, " cache_hits=%d cache_misses=%d cache_bytes=%d cache_entries=%d",
			ts.CacheHits, ts.CacheMisses, ts.CacheBytes, ts.CacheEntries)
	}
	if ts.DirHits > 0 || ts.DirMisses > 0 {
		fmt.Fprintf(w, " dir_hits=%d dir_misses=%d dir_bytes=%d dir_entries=%d",
			ts.DirHits, ts.DirMisses, ts.DirBytes, ts.DirEntries)
	}
	if ts.Enabled {
		// Where the write path's time went: this store's seal and compaction
		// counts, and the total seconds from the process-wide latency
		// histograms (labd runs one store).
		fmt.Fprintf(w, " seals=%d seal_seconds=%.3f compactions=%d compact_seconds=%.3f",
			ts.Seals, histSum("campuslab_tier_seal_seconds"),
			ts.Compactions, histSum("campuslab_tier_compact_seconds"))
	}
	fmt.Fprintln(w)
}

// histSum returns the sum of a histogram family's observations.
func histSum(name string) (sum float64) {
	for _, sr := range obs.Default.SeriesByName(name) {
		sum += sr.Sum
	}
	return sum
}

func (s *server) cmdQuery(w *bufio.Writer, rest string) {
	if rest == "" {
		fmt.Fprintln(w, "ERR QUERY needs an expression")
		return
	}
	matches, err := s.lab.Store().SelectExpr(rest, 10)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "OK %d\n", len(matches))
	for i := range matches {
		fmt.Fprintf(w, "%v %v %dB\n", matches[i].TS.Round(time.Microsecond),
			matches[i].Summary.Tuple, matches[i].Summary.WireLen)
	}
}

func (s *server) cmdRules(w *bufio.Writer, _ string) {
	fmt.Fprintf(w, "OK %d\n", len(s.dep.Rules))
	for _, r := range s.dep.Rules {
		fmt.Fprintln(w, r)
	}
}

// cmdMetrics renders the process metrics snapshot: an "OK <n>" header
// (n = following lines) then the Prometheus text exposition.
func (s *server) cmdMetrics(w *bufio.Writer, _ string) {
	var buf bytes.Buffer
	if err := obs.Default.WriteText(&buf); err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "OK %d\n", bytes.Count(buf.Bytes(), []byte("\n")))
	w.Write(buf.Bytes())
}

func (s *server) cmdLabels(w *bufio.Writer, _ string) {
	counts := s.lab.Store().LabelCounts()
	for l := traffic.LabelBenign; l < traffic.NumLabels; l++ {
		if counts[l] > 0 {
			fmt.Fprintf(w, "%s=%d\n", l, counts[l])
		}
	}
}
