package fleet_test

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/fleet"
	"campuslab/internal/traffic"
)

// synthFrames builds n deterministic synthetic frames.
func synthFrames(n, seed int) []traffic.Frame {
	frames := make([]traffic.Frame, n)
	for i := range frames {
		data := make([]byte, 24+(seed+i)%64)
		for j := range data {
			data[j] = byte(seed*31 + i + j)
		}
		frames[i] = traffic.Frame{
			TS:    time.Duration(seed*1000+i) * time.Microsecond,
			Data:  data,
			Label: traffic.Label((seed + i) % int(traffic.NumLabels)),
			Actor: (seed+i)%3 == 0,
		}
	}
	return frames
}

// startServer runs a fleet server over st on loopback and returns its
// address. Cleanup stops it.
func startServer(t testing.TB, st *datastore.Store, cfg fleet.ServerConfig) string {
	t.Helper()
	cfg.Store = st
	srv, err := fleet.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestStreamMatchesLocalIngest is the transport-transparency contract:
// frames streamed over TCP land a byte-identical store to the same frames
// ingested in process, at any shard/worker combination.
func TestStreamMatchesLocalIngest(t *testing.T) {
	frames := synthFrames(1000, 3)
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			local := datastore.NewSharded(shards)
			for lo := 0; lo < len(frames); lo += 128 {
				hi := min(lo+128, len(frames))
				if _, err := local.AddBatchAdmit(frames[lo:hi], workers); err != nil {
					t.Fatal(err)
				}
			}

			remote := datastore.NewSharded(shards)
			addr := startServer(t, remote, fleet.ServerConfig{Workers: workers})
			cl, err := fleet.DialCampus(fleet.ClientConfig{Addr: addr, Campus: "ucsb"})
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(frames); lo += 128 {
				hi := min(lo+128, len(frames))
				ack, err := cl.SendBatch(frames[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				if int(ack.Ingested) != hi-lo || ack.Shed != 0 {
					t.Fatalf("ack %+v for %d frames", ack, hi-lo)
				}
			}
			cl.Close()

			if lf, rf := local.Digest(), remote.Digest(); lf != rf {
				t.Fatalf("shards=%d workers=%d: TCP store differs from local (digest %x vs %x)", shards, workers, lf, rf)
			}
		}
	}
}

// rawSession opens a raw protocol connection and completes the handshake,
// returning the conn and the server's last acked seq for the campus.
func rawSession(t *testing.T, addr, campus string) (net.Conn, uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(fleet.AppendMessage(nil, fleet.MsgHello, fleet.EncodeHello(campus))); err != nil {
		t.Fatal(err)
	}
	mt, payload := readMsg(t, conn)
	if mt != fleet.MsgHelloAck {
		t.Fatalf("handshake reply %v: %s", mt, payload)
	}
	_, lastSeq, err := fleet.DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	return conn, lastSeq
}

// readMsg reads one framed message off conn.
func readMsg(t *testing.T, conn net.Conn) (fleet.MsgType, []byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var scratch []byte
	mt, payload, err := fleet.ReadMessage(conn, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	return mt, bytes.Clone(payload)
}

func TestServerDedupesRetriedBatch(t *testing.T) {
	st := datastore.New()
	addr := startServer(t, st, fleet.ServerConfig{})
	conn, lastSeq := rawSession(t, addr, "ucsb")
	if lastSeq != 0 {
		t.Fatalf("fresh campus resumes at %d", lastSeq)
	}

	batch := fleet.AppendMessage(nil, fleet.MsgBatch, fleet.EncodeBatch(1, synthFrames(20, 7), nil))
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	mt, first := readMsg(t, conn)
	if mt != fleet.MsgAck {
		t.Fatalf("first send: %v %s", mt, first)
	}
	// Re-send the identical batch: same ack bytes, no re-ingest.
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	mt, second := readMsg(t, conn)
	if mt != fleet.MsgAck || !bytes.Equal(first, second) {
		t.Fatalf("retry: %v, acks equal=%v", mt, bytes.Equal(first, second))
	}
	if got := st.Stats().Packets; got != 20 {
		t.Fatalf("duplicate batch was re-ingested: %d packets", got)
	}

	// The dedup state survives reconnects: a new session resumes at 1.
	conn.Close()
	_, lastSeq = rawSession(t, addr, "ucsb")
	if lastSeq != 1 {
		t.Fatalf("reconnect resumes at %d, want 1", lastSeq)
	}
	// And a different campus starts fresh.
	_, lastSeq = rawSession(t, addr, "princeton")
	if lastSeq != 0 {
		t.Fatalf("other campus resumes at %d, want 0", lastSeq)
	}
}

func TestServerRejectsProtocolViolations(t *testing.T) {
	st := datastore.New()
	addr := startServer(t, st, fleet.ServerConfig{})

	// expectError writes msgs, discards skip replies (handshake acks),
	// then requires a MsgError.
	expectError := func(name string, skip int, msgs ...[]byte) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, m := range msgs {
			if _, err := conn.Write(m); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < skip; i++ {
			if mt, payload := readMsg(t, conn); mt != fleet.MsgHelloAck {
				t.Fatalf("%s: reply %d is %v %q, want hello-ack", name, i, mt, payload)
			}
		}
		mt, payload := readMsg(t, conn)
		if mt != fleet.MsgError {
			t.Fatalf("%s: got %v %q, want error", name, mt, payload)
		}
	}

	hello := func(campus string) []byte {
		return fleet.AppendMessage(nil, fleet.MsgHello, fleet.EncodeHello(campus))
	}
	badVersion := fleet.EncodeHello("ucsb")
	badVersion[4] = 99 // version low byte
	expectError("wrong version", 0, fleet.AppendMessage(nil, fleet.MsgHello, badVersion))
	expectError("empty campus", 0, hello(""))
	expectError("batch before hello", 0, fleet.AppendMessage(nil, fleet.MsgBatch, fleet.EncodeBatch(1, nil, nil)))
	expectError("seq gap", 1, hello("ucsb"),
		fleet.AppendMessage(nil, fleet.MsgBatch, fleet.EncodeBatch(5, synthFrames(3, 1), nil)))
	expectError("double hello", 1, hello("ucsb"), hello("ucsb"))

	if got := st.Stats().Packets; got != 0 {
		t.Fatalf("violating sessions ingested %d packets", got)
	}
}

// TestServerBackpressure drives the store into its admission gate's
// reject posture and checks the typed MsgOverloaded round trip: the
// server refuses without ingesting, the client backs off (recorded, not
// slept) and surfaces the failure after its retry budget.
func TestServerBackpressure(t *testing.T) {
	st := datastore.New()
	st.SetAdmission(datastore.AdmissionConfig{MaxPackets: 50})
	addr := startServer(t, st, fleet.ServerConfig{})

	var slept []time.Duration
	cl, err := fleet.DialCampus(fleet.ClientConfig{
		Addr: addr, Campus: "ucsb",
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Fill to capacity; attack-labeled frames cannot be shed, so the gate
	// moves straight to reject.
	fill := synthFrames(50, 2)
	for i := range fill {
		fill[i].Label = traffic.LabelDNSAmp
	}
	if ack, err := cl.SendBatch(fill); err != nil || ack.Ingested != 50 {
		t.Fatalf("fill: %+v %v", ack, err)
	}

	_, err = cl.SendBatch(synthFrames(10, 9))
	if err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("overfull send: %v", err)
	}
	if len(slept) == 0 {
		t.Fatal("client never backed off")
	}
	for i := 1; i < len(slept); i++ {
		if slept[i] < slept[i-1]/2 {
			t.Fatalf("backoff not growing: %v", slept)
		}
	}
	if got := st.Stats().Packets; got != 50 {
		t.Fatalf("rejected batch leaked into store: %d packets", got)
	}

	// Empty batches are never refused, even at reject.
	if _, err := cl.SendBatch(nil); err != nil {
		t.Fatalf("empty batch refused: %v", err)
	}
}

func TestClientValidatesConfig(t *testing.T) {
	if _, err := fleet.DialCampus(fleet.ClientConfig{Addr: "127.0.0.1:1"}); err == nil {
		t.Fatal("missing campus name accepted")
	}
	if _, err := fleet.DialCampus(fleet.ClientConfig{Campus: "x"}); err == nil {
		t.Fatal("missing address accepted")
	}
	long := strings.Repeat("x", 300)
	if _, err := fleet.DialCampus(fleet.ClientConfig{Addr: "127.0.0.1:1", Campus: long}); err == nil {
		t.Fatal("oversized campus name accepted")
	}
}

func TestClientStreamBatching(t *testing.T) {
	st := datastore.New()
	addr := startServer(t, st, fleet.ServerConfig{})
	cl, err := fleet.DialCampus(fleet.ClientConfig{Addr: addr, Campus: "ucsb"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	frames := synthFrames(257, 11)
	stats, err := cl.Stream(&sliceGen{frames: frames}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != 257 || stats.Stored != 257 || stats.Batches != 3 || stats.Shed != 0 {
		t.Fatalf("stream stats %+v", stats)
	}
	if got := st.Stats().Packets; got != 257 {
		t.Fatalf("store has %d packets", got)
	}
}

// sliceGen replays a fixed frame slice as a traffic.Generator.
type sliceGen struct {
	frames []traffic.Frame
	i      int
}

func (g *sliceGen) Next(f *traffic.Frame) bool {
	if g.i >= len(g.frames) {
		return false
	}
	*f = g.frames[g.i]
	g.i++
	return true
}
