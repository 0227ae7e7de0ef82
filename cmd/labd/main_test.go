package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"campuslab/internal/datastore"
)

var (
	testSrvOnce sync.Once
	testSrv     *server
	testSrvAddr string
	testSrvErr  error
)

// sharedServer builds the one shared labd server (training the model is
// expensive) and its listener. It takes testing.TB so fuzz targets can
// reuse the same instance.
func sharedServer(t testing.TB) *server {
	t.Helper()
	testSrvOnce.Do(func() {
		srv, err := newServer(daemonConfig{Seed: 3})
		if err != nil {
			testSrvErr = err
			return
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			testSrvErr = err
			return
		}
		testSrv = srv
		testSrvAddr = ln.Addr().String()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go srv.handle(conn)
			}
		}()
	})
	if testSrvErr != nil {
		t.Fatal(testSrvErr)
	}
	return testSrv
}

// startTestServer returns a fresh client connection to the shared server.
func startTestServer(t *testing.T) net.Conn {
	t.Helper()
	sharedServer(t)
	conn, err := net.DialTimeout("tcp", testSrvAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// deriveServer clones the shared server's expensive state (lab, model)
// into an independent server so hardening tests can vary idle timeout,
// connection cap, and handlers without disturbing other tests.
func deriveServer(t *testing.T) *server {
	base := sharedServer(t)
	handlers := make(map[string]handler, len(base.handlers))
	for k, v := range base.handlers {
		handlers[k] = v
	}
	return &server{
		lab: base.lab, dep: base.dep, handlers: handlers,
		idle: base.idle, conns: make(map[net.Conn]struct{}),
	}
}

// listenWith serves srv on its own listener and returns the address.
func listenWith(t *testing.T, srv *server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.handle(conn)
		}
	}()
	return ln.Addr().String()
}

// dialSession connects to addr and consumes the banner.
func dialSession(t *testing.T, addr string) *protoSession {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	s := &protoSession{conn: conn, r: bufio.NewReader(conn)}
	banner, err := s.r.ReadString('\n')
	if err != nil || !strings.Contains(banner, "labd ready") {
		t.Fatalf("banner = %q, err = %v", banner, err)
	}
	return s
}

// protoSession drives one request/response exchange.
type protoSession struct {
	conn net.Conn
	r    *bufio.Reader
}

func newSession(t *testing.T) *protoSession {
	t.Helper()
	conn := startTestServer(t)
	s := &protoSession{conn: conn, r: bufio.NewReader(conn)}
	banner, err := s.r.ReadString('\n')
	if err != nil || !strings.Contains(banner, "labd ready") {
		t.Fatalf("banner = %q, err = %v", banner, err)
	}
	return s
}

func (s *protoSession) send(t *testing.T, cmd string) string {
	t.Helper()
	if _, err := s.conn.Write([]byte(cmd + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err := s.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(line)
}

func (s *protoSession) readLines(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		line, err := s.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, strings.TrimSpace(line))
	}
	return out
}

func TestLabdStats(t *testing.T) {
	s := newSession(t)
	resp := s.send(t, "STATS")
	if !strings.Contains(resp, "packets=") || !strings.Contains(resp, "flows=") {
		t.Errorf("STATS = %q", resp)
	}
	if strings.Contains(resp, "packets=0 ") {
		t.Error("server booted with empty store")
	}
}

func TestLabdQuery(t *testing.T) {
	s := newSession(t)
	resp := s.send(t, "QUERY dns && dns.qtype == ANY")
	if !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("QUERY = %q", resp)
	}
	var n int
	if _, err := sscanInt(resp[3:], &n); err != nil {
		t.Fatalf("bad count in %q", resp)
	}
	if n == 0 {
		t.Fatal("no ANY-query packets in the scenario")
	}
	lines := s.readLines(t, n)
	for _, l := range lines {
		if !strings.Contains(l, ">") {
			t.Errorf("result line %q lacks a tuple", l)
		}
	}
}

func TestLabdQueryErrors(t *testing.T) {
	s := newSession(t)
	if resp := s.send(t, "QUERY"); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("bare QUERY = %q", resp)
	}
	if resp := s.send(t, "QUERY bogusfield == 1"); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("bad expression = %q", resp)
	}
	if resp := s.send(t, "FROBNICATE"); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("unknown command = %q", resp)
	}
}

func TestLabdRulesAndLabels(t *testing.T) {
	s := newSession(t)
	resp := s.send(t, "RULES")
	if !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("RULES = %q", resp)
	}
	var n int
	if _, err := sscanInt(resp[3:], &n); err != nil || n == 0 {
		t.Fatalf("rule count in %q", resp)
	}
	rules := s.readLines(t, n)
	for _, r := range rules {
		if !strings.HasPrefix(r, "IF ") {
			t.Errorf("rule %q", r)
		}
	}
	labels := s.send(t, "LABELS")
	if !strings.HasPrefix(labels, "benign=") && !strings.HasPrefix(labels, "dns-amp=") {
		t.Errorf("LABELS first line = %q", labels)
	}
}

func TestLabdQuit(t *testing.T) {
	s := newSession(t)
	if resp := s.send(t, "QUIT"); resp != "bye" {
		t.Errorf("QUIT = %q", resp)
	}
	// Connection should be closed by the server.
	s.conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := s.r.ReadString('\n'); err == nil {
		t.Error("connection still open after QUIT")
	}
}

func TestLabdConcurrentClients(t *testing.T) {
	// Two sessions against the same server must not interfere.
	a := newSession(t)
	b := newSession(t)
	ra := a.send(t, "STATS")
	rb := b.send(t, "STATS")
	if ra != rb {
		t.Errorf("stats diverge across clients: %q vs %q", ra, rb)
	}
}

// sscanInt parses a leading integer.
func sscanInt(s string, out *int) (int, error) {
	return fmt.Sscan(s, out)
}

func TestLabdConnCap(t *testing.T) {
	srv := deriveServer(t)
	srv.sem = make(chan struct{}, 1)
	addr := listenWith(t, srv)

	first := dialSession(t, addr) // holds the only slot
	over, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	over.SetReadDeadline(time.Now().Add(3 * time.Second))
	line, err := bufio.NewReader(over).ReadString('\n')
	if err != nil {
		t.Fatalf("over-cap connection: %v", err)
	}
	if !strings.HasPrefix(line, "ERR busy") {
		t.Fatalf("over-cap connection got %q, want ERR busy", line)
	}
	// The admitted connection is unaffected.
	if resp := first.send(t, "STATS"); !strings.Contains(resp, "packets=") {
		t.Errorf("STATS on admitted conn = %q", resp)
	}
	// Releasing the slot lets the next dialer in.
	first.send(t, "QUIT")
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		line, err := bufio.NewReader(conn).ReadString('\n')
		conn.Close()
		if err == nil && strings.Contains(line, "labd ready") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after QUIT; last banner %q err %v", line, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestLabdPanicRecovery(t *testing.T) {
	srv := deriveServer(t)
	srv.handlers["BOOM"] = func(*server, *bufio.Writer, string) { panic("injected handler bug") }
	addr := listenWith(t, srv)
	s := dialSession(t, addr)
	if resp := s.send(t, "BOOM"); resp != "ERR internal error" {
		t.Fatalf("panicking handler returned %q", resp)
	}
	// The connection and the daemon both survive.
	if resp := s.send(t, "STATS"); !strings.Contains(resp, "packets=") {
		t.Errorf("STATS after panic = %q", resp)
	}
	s2 := dialSession(t, addr)
	if resp := s2.send(t, "STATS"); !strings.Contains(resp, "packets=") {
		t.Errorf("new conn after panic = %q", resp)
	}
}

func TestLabdIdleTimeout(t *testing.T) {
	srv := deriveServer(t)
	srv.idle = 150 * time.Millisecond
	addr := listenWith(t, srv)
	s := dialSession(t, addr)
	// Stay silent past the idle window: the server must close us.
	s.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := s.r.ReadString('\n'); err == nil {
		t.Fatal("idle connection not closed by server")
	}
	// The deadline refreshes per command: a chatty connection outlives
	// many idle windows.
	s2 := dialSession(t, addr)
	for i := 0; i < 3; i++ {
		time.Sleep(100 * time.Millisecond)
		if resp := s2.send(t, "STATS"); !strings.Contains(resp, "packets=") {
			t.Fatalf("command %d on chatty conn = %q", i, resp)
		}
	}
}

func TestLabdGracefulDrain(t *testing.T) {
	srv := deriveServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		serve(ctx, ln, srv, 5*time.Second)
		close(served)
	}()

	s := dialSession(t, addr)
	cancel() // SIGTERM equivalent: stop accepting, drain in-flight

	// New connections are refused once the listener is down.
	refusedBy := time.Now().Add(3 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(refusedBy) {
			t.Fatal("listener still accepting after shutdown")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The in-flight connection finishes its work during the grace period.
	if resp := s.send(t, "STATS"); !strings.Contains(resp, "packets=") {
		t.Errorf("in-flight conn broken during drain: %q", resp)
	}
	s.send(t, "QUIT")
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after connections drained")
	}
}

func TestLabdDrainForceCloseStragglers(t *testing.T) {
	srv := deriveServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		serve(ctx, ln, srv, 300*time.Millisecond)
		close(served)
	}()
	s := dialSession(t, addr) // never quits: a straggler
	cancel()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("serve hung on a straggler past the grace period")
	}
	// The straggler was force-closed.
	s.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := s.r.ReadString('\n'); err == nil {
		t.Error("straggler connection still open after forced drain")
	}
}

func TestLabdMetricsCommand(t *testing.T) {
	s := newSession(t)
	// Run a QUERY first so its command counter is provably visible in the
	// snapshot that follows.
	resp := s.send(t, "QUERY dns")
	if !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("QUERY = %q", resp)
	}
	var qn int
	if _, err := sscanInt(resp[3:], &qn); err != nil {
		t.Fatalf("bad count in %q", resp)
	}
	s.readLines(t, qn)

	resp = s.send(t, "METRICS")
	if !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("METRICS = %q", resp)
	}
	var n int
	if _, err := sscanInt(resp[3:], &n); err != nil || n == 0 {
		t.Fatalf("metrics line count in %q", resp)
	}
	body := strings.Join(s.readLines(t, n), "\n")

	// The snapshot must cover every layer: datastore ingest, dataplane
	// verdicts, control-loop resilience, and the daemon's own counters.
	for _, want := range []string{
		"campuslab_store_ingest_packets_total",
		"campuslab_store_ingest_batches_total",
		`campuslab_dataplane_verdicts_total{action="permit"}`,
		"campuslab_control_install_retries_total",
		`campuslab_control_breaker_transitions_total{to="open"}`,
		"campuslab_labd_connections_total",
		"# TYPE campuslab_store_ingest_batch_size histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("METRICS snapshot missing %q", want)
		}
	}
	// The QUERY we just ran must be counted.
	found := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `campuslab_labd_commands_total{cmd="QUERY"} `) {
			var v float64
			if _, err := fmt.Sscan(line[strings.LastIndex(line, " ")+1:], &v); err != nil {
				t.Fatalf("unparseable series %q", line)
			}
			if v < 1 {
				t.Errorf("QUERY command counter = %v, want >= 1", v)
			}
			found = true
		}
	}
	if !found {
		t.Error("no campuslab_labd_commands_total{cmd=\"QUERY\"} series in snapshot")
	}
}

func TestLabdMetricsShowDeployedTraffic(t *testing.T) {
	// newServer road-tests the deployment before serving, so the very
	// first scrape must already show packets flowing and verdicts issued.
	sharedServer(t)
	s := newSession(t)
	resp := s.send(t, "METRICS")
	var n int
	if _, err := sscanInt(resp[3:], &n); err != nil {
		t.Fatalf("METRICS = %q", resp)
	}
	body := strings.Join(s.readLines(t, n), "\n")
	for _, series := range []string{
		"campuslab_store_ingest_packets_total ",
		`campuslab_dataplane_verdicts_total{action="permit"} `,
		"campuslab_control_loops_total ",
	} {
		v, ok := seriesValue(body, series)
		if !ok {
			t.Errorf("series %q absent", series)
			continue
		}
		if v <= 0 {
			t.Errorf("series %q = %v, want > 0 after warmup replay", series, v)
		}
	}
}

// seriesValue extracts the value of the first line starting with prefix.
func seriesValue(body, prefix string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscan(line[strings.LastIndex(line, " ")+1:], &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// TestLabdDurableLifecycle boots a durable daemon, checks /healthz-level
// health, drains it, and re-boots from the same directory: the second
// boot must recover the first boot's store instead of re-collecting.
func TestLabdDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv, err := newServer(daemonConfig{Seed: 3, DataDir: dir, Fsync: datastore.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.health()
	if h.Status != "ok" || !h.Durable || !h.WAL.Attached {
		t.Fatalf("health = %+v", h)
	}
	if h.Lifecycle != "healthy" {
		t.Fatalf("lifecycle = %q", h.Lifecycle)
	}
	packets := srv.lab.Store().Stats().Packets
	if packets == 0 {
		t.Fatal("fresh durable boot collected nothing")
	}
	if err := srv.drainDurable(); err != nil {
		t.Fatal(err)
	}

	srv2, err := newServer(daemonConfig{Seed: 99, DataDir: dir, Fsync: datastore.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.drainDurable()
	// Seed 99 would synthesize a different scenario; identical packet
	// counts prove the second boot recovered rather than re-collected.
	if got := srv2.lab.Store().Stats().Packets; got != packets {
		t.Fatalf("recovered %d packets, first boot had %d", got, packets)
	}
	// The log is the hot tier's only durable copy, so after a clean drain
	// the lag is the hot rows a recovery replays, not zero.
	h2 := srv2.health()
	if h2.WAL.Records == 0 || h2.WAL.Error != "" {
		t.Fatalf("clean recovery reports no WAL to replay, or a wedged one: %+v", h2.WAL)
	}
}

// TestLabdTieredLifecycle boots a tiered durable daemon with a hot cap far
// below the boot scenario, so the collect itself spills history into cold
// segments; health, STATS and a reboot must all see the cold tier.
func TestLabdTieredLifecycle(t *testing.T) {
	dir := t.TempDir()
	dc := daemonConfig{
		Seed: 3, DataDir: dir, Fsync: datastore.FsyncAlways,
		Tier: datastore.TierPolicy{Dir: filepath.Join(dir, "tier"), HotPackets: 2000},
	}
	srv, err := newServer(dc)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.health()
	if !h.Tier.Enabled || h.Tier.Segments == 0 || h.Tier.ColdPackets == 0 {
		t.Fatalf("boot scenario did not spill to cold tier: %+v", h.Tier)
	}
	if h.Status != "ok" || h.Tier.Error != "" {
		t.Fatalf("health = %+v", h)
	}
	var sb strings.Builder
	w := bufio.NewWriter(&sb)
	srv.cmdStats(w, "")
	w.Flush()
	if !strings.Contains(sb.String(), "cold_packets=") || !strings.Contains(sb.String(), "segments=") {
		t.Fatalf("STATS hides the cold tier: %q", sb.String())
	}
	// The boot collect sealed, so the seal latency histogram has samples
	// and STATS reports them (seals=0 would mean the seal is unobserved).
	if !strings.Contains(sb.String(), " seal_seconds=") || strings.Contains(sb.String(), " seals=0 ") ||
		!strings.Contains(sb.String(), " compact_seconds=") {
		t.Fatalf("STATS hides seal/compaction latency: %q", sb.String())
	}
	total := srv.lab.Store().Stats().Packets + srv.lab.Store().Stats().ColdPackets
	if err := srv.drainDurable(); err != nil {
		t.Fatal(err)
	}

	srv2, err := newServer(dc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.drainDurable()
	st2 := srv2.lab.Store().Stats()
	if got := st2.Packets + st2.ColdPackets; got != total {
		t.Fatalf("tiered reboot holds %d packets, first boot had %d", got, total)
	}
	if st2.ColdPackets == 0 {
		t.Fatal("reboot lost the cold tier")
	}
}
