package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/frame"
	"campuslab/internal/obs"
	"campuslab/internal/traffic"
)

// Fleet ingest counters. Batch- and connection-granularity only — the
// per-frame work happens inside the store's own instrumented ingest path.
var (
	obsSrvConns      = obs.Default.Counter("campuslab_fleet_server_connections_total")
	obsSrvBatches    = obs.Default.Counter(obs.FleetBatchesName)
	obsSrvFrames     = obs.Default.Counter(obs.FleetFramesName)
	obsSrvBytes      = obs.Default.Counter("campuslab_fleet_server_bytes_total")
	obsSrvDups       = obs.Default.Counter("campuslab_fleet_server_duplicate_batches_total")
	obsSrvOverloaded = obs.Default.Counter("campuslab_fleet_server_overloaded_replies_total")
	obsSrvErrors     = obs.Default.Counter("campuslab_fleet_server_protocol_errors_total")
	obsSrvCampuses   = obs.Default.Gauge("campuslab_fleet_server_campuses")
)

// ServerConfig parameterizes an ingest listener.
type ServerConfig struct {
	// Store receives every acked batch (required). When the store is
	// durable (WAL attached), a msgAck means the batch is on disk.
	Store *datastore.Store
	// Workers bounds per-batch ingest fan-out (0 = GOMAXPROCS).
	Workers int
}

// idleTimeout closes a connection that sends nothing for this long.
const idleTimeout = 2 * time.Minute

// Server accepts campus ingest streams and lands their batches in the
// store. Multiple campuses may stream concurrently; batches within one
// campus are serialized by sequence number, and re-sent batches (client
// retry after a torn connection) are answered from a per-campus ack cache
// without touching the store.
type Server struct {
	cfg ServerConfig

	mu       sync.Mutex
	campuses map[string]*campusState
	conns    map[net.Conn]struct{}
	closed   atomic.Bool
	wg       sync.WaitGroup
}

// campusState is the per-campus stream position: the last acked batch
// sequence and its cached reply. It survives reconnects (keyed by campus
// name, not connection), which is what makes retry idempotent.
type campusState struct {
	mu      sync.Mutex
	lastSeq uint64
	lastAck Ack
}

// NewServer builds an ingest server over the store.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: server needs a store")
	}
	return &Server{
		cfg:      cfg,
		campuses: make(map[string]*campusState),
		conns:    make(map[net.Conn]struct{}),
	}, nil
}

// Serve accepts connections on ln until Close (or a non-temporary accept
// error). Each connection is handled on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if s.closed.Load() {
			conn.Close()
			return nil
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.handle(conn)
		}()
	}
}

// Close stops accepting work and force-closes live connections. The
// listener passed to Serve must be closed by the caller (Serve returns
// once it is).
func (s *Server) Close() {
	s.closed.Store(true)
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// campus returns (creating if needed) the state for a campus name.
func (s *Server) campus(name string) *campusState {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.campuses[name]
	if !ok {
		cs = &campusState{}
		s.campuses[name] = cs
		obsSrvCampuses.Set(float64(len(s.campuses)))
	}
	return cs
}

// reply writes one framed message and flushes it.
func reply(w *bufio.Writer, t msgType, payload []byte) error {
	var hdr []byte
	hdr = appendMessage(hdr, t, payload)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return w.Flush()
}

// fail sends a fatal msgError (best effort) and counts it.
func fail(w *bufio.Writer, format string, args ...any) {
	obsSrvErrors.Inc()
	_ = reply(w, msgError, []byte(fmt.Sprintf(format, args...)))
}

// handle runs one connection: handshake, then a batch/ack loop until the
// peer hangs up or violates the protocol.
func (s *Server) handle(conn net.Conn) {
	obsSrvConns.Inc()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var scratch []byte

	conn.SetReadDeadline(time.Now().Add(idleTimeout))
	t, payload, err := readMessage(br, &scratch)
	if err != nil || t != msgHello {
		if err == nil {
			fail(bw, "expected hello, got %v", t)
		}
		return
	}
	campus, version, err := decodeHello(payload)
	if err != nil {
		fail(bw, "bad hello: %v", err)
		return
	}
	if version != protocolVersion {
		fail(bw, "protocol version %d not supported (want %d)", version, protocolVersion)
		return
	}
	if campus == "" {
		fail(bw, "empty campus name")
		return
	}
	cs := s.campus(campus)
	cs.mu.Lock()
	lastSeq := cs.lastSeq
	cs.mu.Unlock()
	if err := reply(bw, msgHelloAck, encodeHelloAck(lastSeq)); err != nil {
		return
	}

	for {
		conn.SetReadDeadline(time.Now().Add(idleTimeout))
		t, payload, err := readMessage(br, &scratch)
		switch {
		case err == io.EOF:
			return // clean hangup at a message boundary
		case errors.Is(err, errFrameCorrupt):
			fail(bw, "corrupt message: %v", err)
			return
		case err != nil:
			return // cut mid-message or deadline: nothing was ingested
		}
		if t != msgBatch {
			fail(bw, "expected batch, got %v", t)
			return
		}
		seq, frames, links, err := DecodeBatch(payload)
		if err != nil {
			fail(bw, "corrupt batch: %v", err)
			return
		}
		// A batch payload is the sequence, the record count, one fixed
		// header per record and the data, and DecodeBatch refused anything
		// else: what is left is the frame bytes.
		nbytes := len(payload) - 8 - frame.RecordsSize(nil) - len(frames)*frame.RecordHeaderSize
		if !s.ingestBatch(bw, cs, campus, seq, frames, links, uint64(nbytes)) {
			return
		}
	}
}

// ingestBatch lands one decoded batch of nbytes frame bytes (or answers it
// from the ack cache) and writes the reply. Returns false when the connection should close.
func (s *Server) ingestBatch(bw *bufio.Writer, cs *campusState, campus string, seq uint64, frames []traffic.Frame, links []uint16, nbytes uint64) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	switch {
	case seq == cs.lastSeq && seq != 0:
		// Retry of the batch we just acked: the ack was lost, not the
		// batch. Answer from the cache; the store never sees it again.
		obsSrvDups.Inc()
		return reply(bw, msgAck, encodeAck(cs.lastAck)) == nil
	case seq != cs.lastSeq+1:
		fail(bw, "campus %s: batch seq %d after %d", campus, seq, cs.lastSeq)
		return false
	}
	r, err := s.cfg.Store.AddBatchLinks(frames, links, s.cfg.Workers)
	switch {
	case errors.Is(err, datastore.ErrOverloaded):
		// Typed backpressure: the whole batch was refused before any WAL
		// append; the client backs off and retries the same sequence.
		obsSrvOverloaded.Inc()
		return reply(bw, msgOverloaded, encodeSeq(seq)) == nil
	case err != nil:
		// WAL failure or other refusal: the batch is NOT durable and must
		// not be acked. Fatal for the stream — a wedged log will not heal
		// by retrying.
		fail(bw, "campus %s: ingest: %v", campus, err)
		return false
	}
	cs.lastSeq = seq
	cs.lastAck = Ack{Seq: seq, First: uint64(r.First), Ingested: uint32(r.Ingested), Shed: uint32(r.Shed)}
	obsSrvBatches.Inc()
	obsSrvFrames.Add(uint64(len(frames)))
	obsSrvBytes.Add(nbytes)
	return reply(bw, msgAck, encodeAck(cs.lastAck)) == nil
}
