package fleet

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"time"

	"campuslab/internal/control"
	"campuslab/internal/obs"
	"campuslab/internal/traffic"
)

var (
	obsCliBatches  = obs.Default.Counter("campuslab_fleet_client_batches_total")
	obsCliFrames   = obs.Default.Counter("campuslab_fleet_client_frames_total")
	obsCliRetries  = obs.Default.Counter("campuslab_fleet_client_retries_total")
	obsCliRedials  = obs.Default.Counter("campuslab_fleet_client_redials_total")
	obsCliBackoffs = obs.Default.Counter("campuslab_fleet_client_overload_backoffs_total")
)

// ClientConfig parameterizes a campus ingest client.
type ClientConfig struct {
	// Addr is the server's TCP address (ignored when Dial is set).
	Addr string
	// Campus names this stream; the server keys its resume/dedup state by
	// it, so a campus must not run two writers under one name.
	Campus string
	// Dial overrides the transport (tests inject faulty connections).
	Dial func() (net.Conn, error)
	// Sleep overrides the backoff sleep (tests use a recorder; default
	// time.Sleep).
	Sleep func(time.Duration)
}

// sendRetry bounds per-batch delivery: 8 tries with 5ms..500ms exponential
// backoff and seeded jitter, on the control plane's retry schedule.
var sendRetry = control.RetryPolicy{MaxAttempts: 8, Base: 5 * time.Millisecond, Max: 500 * time.Millisecond, Seed: 1}

// ioTimeout is the client's per-message I/O deadline.
const ioTimeout = 30 * time.Second

func (c ClientConfig) withDefaults() (ClientConfig, error) {
	if c.Campus == "" {
		return c, fmt.Errorf("fleet: client needs a campus name")
	}
	if len(c.Campus) > maxCampusName {
		return c, fmt.Errorf("fleet: campus name %d bytes (max %d)", len(c.Campus), maxCampusName)
	}
	if c.Dial == nil {
		if c.Addr == "" {
			return c, fmt.Errorf("fleet: client needs an address")
		}
		addr := c.Addr
		c.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c, nil
}

// Client streams labeled frame batches to a fleet ingest server. Not
// goroutine-safe: one stream has one writer (batch sequence numbers are a
// single ascending counter).
type Client struct {
	cfg    ClientConfig
	conn   net.Conn
	br     *bufio.Reader
	seq    uint64 // last sequence this client assigned
	jitter *rand.Rand
	// serverSeq is the server's last acked sequence from the most recent
	// handshake — how a reconnect learns whether the in-flight batch's
	// ack was lost after the batch landed.
	serverSeq uint64
	scratch   []byte
	// msg holds the batch message being delivered, reused across batches.
	// It is distinct from scratch (the read buffer): the message must stay
	// intact across the read of its reply so a retry re-sends the
	// identical bytes.
	msg []byte
}

// DialCampus connects and handshakes a campus ingest stream. The client
// resumes its sequence numbering from the server's acked position, so a
// restarted client under the same campus name continues without gaps.
func DialCampus(cfg ClientConfig) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, jitter: rand.New(rand.NewSource(sendRetry.Seed))}
	if err := c.connect(); err != nil {
		return nil, err
	}
	c.seq = c.serverSeq
	return c, nil
}

// connect dials and handshakes, replacing any previous connection.
func (c *Client) connect() (err error) {
	c.Close()
	conn, err := c.cfg.Dial()
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	br := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(ioTimeout))
	msg := appendMessage(nil, msgHello, encodeHello(c.cfg.Campus))
	if _, err := conn.Write(msg); err != nil {
		return fmt.Errorf("fleet: hello: %w", err)
	}
	t, payload, err := readMessage(br, &c.scratch)
	if err != nil {
		return fmt.Errorf("fleet: hello reply: %w", err)
	}
	switch t {
	case msgHelloAck:
	case msgError:
		return fmt.Errorf("fleet: server rejected handshake: %s", payload)
	default:
		return fmt.Errorf("fleet: unexpected handshake reply %v", t)
	}
	version, lastSeq, err := decodeHelloAck(payload)
	if err != nil {
		return err
	}
	if version != protocolVersion {
		return fmt.Errorf("fleet: server speaks version %d, client %d", version, protocolVersion)
	}
	c.conn, c.br, c.serverSeq = conn, br, lastSeq
	return nil
}

// Close tears down the connection; a later SendBatch redials. Acked
// batches are already in the server's store; unacked ones were never
// acknowledged to the caller.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br = nil, nil
	return err
}

// SendBatch delivers one batch of frames, blocking until the server
// acknowledges it or the retry budget runs out. Delivery is exactly-once
// from the store's point of view: a connection cut after the batch landed
// but before the ack arrived is retried and answered from the server's
// ack cache, never re-ingested. A msgOverloaded reply (admission gate
// shut) backs off with the control plane's jittered schedule and retries
// the same sequence.
func (c *Client) SendBatch(frames []traffic.Frame) (Ack, error) {
	if len(frames) == 0 {
		return Ack{Seq: c.seq}, nil
	}
	seq := c.seq + 1
	c.msg = appendBatchMessage(c.msg, seq, frames, nil)
	step := sendRetry.Base
	var lastErr error
	for attempt := 1; attempt <= sendRetry.MaxAttempts; attempt++ {
		if attempt > 1 {
			obsCliRetries.Inc()
			var delay time.Duration
			delay, step = sendRetry.Backoff(step, c.jitter)
			c.cfg.Sleep(delay)
		}
		if c.conn == nil {
			obsCliRedials.Inc()
			if lastErr = c.connect(); lastErr != nil {
				continue
			}
		}
		ack, retry, err := c.exchange(c.msg, seq)
		if err == nil {
			c.seq = seq
			obsCliBatches.Inc()
			obsCliFrames.Add(uint64(len(frames)))
			return ack, nil
		}
		if !retry {
			return Ack{}, err
		}
		lastErr = err
	}
	return Ack{}, fmt.Errorf("fleet: batch %d not acknowledged after %d attempts: %w",
		seq, sendRetry.MaxAttempts, lastErr)
}

// exchange performs one write-batch/read-reply round trip. retry reports
// whether the failure is worth another attempt.
func (c *Client) exchange(msg []byte, seq uint64) (ack Ack, retry bool, err error) {
	c.conn.SetDeadline(time.Now().Add(ioTimeout))
	if _, werr := c.conn.Write(msg); werr != nil {
		c.Close()
		return Ack{}, true, fmt.Errorf("fleet: write batch %d: %w", seq, werr)
	}
	t, payload, rerr := readMessage(c.br, &c.scratch)
	if rerr != nil {
		// The cut may have landed after ingest: reconnect and re-send;
		// the server's ack cache makes the retry idempotent.
		c.Close()
		return Ack{}, true, fmt.Errorf("fleet: read reply for batch %d: %w", seq, rerr)
	}
	switch t {
	case msgAck:
		ack, aerr := decodeAck(payload)
		if aerr != nil {
			c.Close()
			return Ack{}, true, aerr
		}
		if ack.Seq != seq {
			c.Close()
			return Ack{}, true, fmt.Errorf("fleet: ack for batch %d while waiting on %d", ack.Seq, seq)
		}
		return ack, false, nil
	case msgOverloaded:
		obsCliBackoffs.Inc()
		return Ack{}, true, fmt.Errorf("fleet: server overloaded at batch %d", seq)
	case msgError:
		return Ack{}, false, fmt.Errorf("fleet: server error at batch %d: %s", seq, payload)
	default:
		c.Close()
		return Ack{}, true, fmt.Errorf("fleet: unexpected reply %v to batch %d", t, seq)
	}
}

// StreamStats summarizes one Stream call.
type StreamStats struct {
	Frames  uint64 // frames offered by the generator
	Stored  uint64 // frames the server acknowledged as ingested
	Shed    uint64 // frames the server's admission gate shed
	Batches uint64 // acked batches
}

// defaultStreamBatch mirrors the local collector's ingest batch size, so
// a streamed campus and a locally collected one land byte-identical
// stores.
const defaultStreamBatch = 4096

// Stream drains a generator into the server in batches of batchSize
// (<=0 = defaultStreamBatch), the streaming counterpart of Lab.Collect.
func (c *Client) Stream(gen traffic.Generator, batchSize int) (StreamStats, error) {
	if batchSize <= 0 {
		batchSize = defaultStreamBatch
	}
	var st StreamStats
	batch := make([]traffic.Frame, 0, batchSize)
	flush := func() error {
		ack, err := c.SendBatch(batch)
		if err != nil {
			return err
		}
		if len(batch) > 0 {
			st.Batches++
		}
		st.Stored += uint64(ack.Ingested)
		st.Shed += uint64(ack.Shed)
		batch = batch[:0]
		return nil
	}
	var f traffic.Frame
	for gen.Next(&f) {
		batch = append(batch, f)
		st.Frames++
		if len(batch) == batchSize {
			if err := flush(); err != nil {
				return st, err
			}
		}
	}
	if err := flush(); err != nil {
		return st, err
	}
	return st, nil
}
