package fleet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/frame"
)

// scriptedServer is the far end of a campus stream cut down to what a
// client can observe: a hello is answered with the last sequence acked, a
// batch with its ack, both built in one reused buffer — so the server side
// of an exchange costs the same few allocations whatever the batch holds,
// and the difference between two batch sizes is the client's alone. It
// keeps a copy of every batch message written and can lose chosen acks.
type scriptedServer struct {
	lastSeq uint64
	writes  [][]byte     // every msgBatch written, in order (when keep is set)
	keep    bool         // copy batch messages into writes
	loseAck map[int]bool // 1-based batch write numbers whose ack is cut
	nwrites int
}

// scriptedConn is one connection to a scriptedServer.
type scriptedConn struct {
	net.Conn // nil: the client uses only the methods below
	srv      *scriptedServer
	reply    []byte // what the server has sent and the client not yet read
	buf      []byte // reply's backing store, reused
}

func (c *scriptedConn) SetDeadline(time.Time) error { return nil }
func (c *scriptedConn) Close() error                { return nil }

func (c *scriptedConn) Write(b []byte) (int, error) {
	s := c.srv
	switch msgType(b[0]) {
	case msgHello:
		c.buf = appendMessage(c.buf[:0], msgHelloAck, encodeHelloAck(s.lastSeq))
		c.reply = c.buf
	case msgBatch:
		s.nwrites++
		if s.keep {
			s.writes = append(s.writes, bytes.Clone(b))
		}
		seq := binary.LittleEndian.Uint64(b[1+frame.BlockHeaderSize:])
		count := binary.LittleEndian.Uint32(b[1+frame.BlockHeaderSize+8:])
		s.lastSeq = seq // the batch landed, whether or not its ack arrives
		c.reply = nil
		if !s.loseAck[s.nwrites] {
			c.buf = appendMessage(c.buf[:0], msgAck, encodeAck(Ack{Seq: seq, Ingested: count}))
			c.reply = c.buf
		}
	}
	return len(b), nil
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if len(c.reply) == 0 {
		return 0, io.ErrUnexpectedEOF // the cut connection
	}
	n := copy(p, c.reply)
	c.reply = c.reply[n:]
	return n, nil
}

func dialScripted(t *testing.T, srv *scriptedServer) *Client {
	t.Helper()
	cl, err := DialCampus(ClientConfig{
		Campus: "ucsb",
		Dial:   func() (net.Conn, error) { return &scriptedConn{srv: srv}, nil },
		Sleep:  func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestAppendBatchMessageMatchesTwoStep: the in-place encoder writes the
// bytes appendMessage(EncodeBatch) writes, into a fresh buffer, a reused
// one that held a longer message, and one too small.
func TestAppendBatchMessageMatchesTwoStep(t *testing.T) {
	var dst []byte
	for i, n := range []int{40, 3, 0, 200} {
		frames := testFrames(n, 7+i)
		var links []uint16
		if i%2 == 1 {
			links = make([]uint16, n)
			for j := range links {
				links[j] = uint16(j * 257)
			}
		}
		want := appendMessage(nil, msgBatch, EncodeBatch(uint64(i+1), frames, links))
		dst = appendBatchMessage(dst, uint64(i+1), frames, links)
		if !bytes.Equal(dst, want) {
			t.Fatalf("step %d (%d frames): in-place message differs from appendMessage(EncodeBatch)", i, n)
		}
	}
}

// TestSendBatchClientAllocsConstant: once its message buffer has grown, a
// client sends a batch without an allocation that scales with the frames
// or their bytes — scratchMsg used to hand back nil, so every batch built
// its payload in one fresh buffer and copied it into a second.
func TestSendBatchClientAllocsConstant(t *testing.T) {
	cl := dialScripted(t, &scriptedServer{})
	defer cl.Close()
	frames := testFrames(2048, 2)
	// send reports allocations and allocated bytes per SendBatch of n frames.
	send := func(n int) (allocs, bytes float64) {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			if ack, err := cl.SendBatch(frames[:n]); err != nil || int(ack.Ingested) != n {
				t.Fatalf("SendBatch(%d frames): ack %+v, err %v", n, ack, err)
			}
		})
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	send(2048) // warm-up: grow the message buffer to the largest batch
	few, fewBytes := send(8)
	many, manyBytes := send(2048)
	if few != many || many > 6 {
		t.Errorf("%v allocations for 8 frames, %v for 2048: want the same handful (client + scripted reply)", few, many)
	}
	if msg := float64(len(cl.msg)); manyBytes > fewBytes+msg/8 {
		t.Errorf("%.0f B allocated per 2048-frame batch, %.0f per 8-frame batch: a %.0f B message is being rebuilt", manyBytes, fewBytes, msg)
	}
}

// TestSendBatchRetryResendsIdenticalBytes: when an ack is lost the client
// redials and sends the batch again from the buffer it kept; reading the
// failed reply and the new handshake in between must not disturb it.
func TestSendBatchRetryResendsIdenticalBytes(t *testing.T) {
	srv := &scriptedServer{keep: true, loseAck: map[int]bool{2: true, 3: true}}
	cl := dialScripted(t, srv)
	defer cl.Close()
	for i, n := range []int{30, 50, 20} {
		ack, err := cl.SendBatch(testFrames(n, 11+i))
		if err != nil || ack.Seq != uint64(i+1) || int(ack.Ingested) != n {
			t.Fatalf("batch %d: ack %+v, err %v", i+1, ack, err)
		}
	}
	// Batch 2's first two sends lost their acks: writes are 1, 2, 2, 2, 3.
	if len(srv.writes) != 5 {
		t.Fatalf("%d batch writes, want 5", len(srv.writes))
	}
	if !bytes.Equal(srv.writes[1], srv.writes[2]) || !bytes.Equal(srv.writes[1], srv.writes[3]) {
		t.Fatal("a retry re-sent different bytes")
	}
	want := appendMessage(nil, msgBatch, EncodeBatch(2, testFrames(50, 12), nil))
	if !bytes.Equal(srv.writes[1], want) {
		t.Fatal("batch 2 on the wire differs from its canonical encoding")
	}
	if bytes.Equal(srv.writes[3], srv.writes[4]) {
		t.Fatal("batch 3 re-sent batch 2's bytes")
	}
}

// TestServerCountsFrameBytes: the server takes a batch's frame bytes from
// its payload length (sequence, count and fixed headers subtracted) rather
// than walking the frames again; the byte counter must still advance by
// exactly the bytes of the frames acked, empty frames and links included.
func TestServerCountsFrameBytes(t *testing.T) {
	srv, err := NewServer(ServerConfig{Store: datastore.NewSharded(2)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ln.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	cl, err := DialCampus(ClientConfig{Addr: ln.Addr().String(), Campus: "ucsb"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before := obsSrvBytes.Value()
	var want uint64
	for i, n := range []int{1, 64, 300} {
		frames := testFrames(n, 3+i)
		frames[0].Data = nil
		for j := range frames {
			want += uint64(len(frames[j].Data))
		}
		if _, err := cl.SendBatch(frames); err != nil {
			t.Fatal(err)
		}
	}
	if got := obsSrvBytes.Value() - before; got != want {
		t.Errorf("server byte counter advanced %d, frames held %d", got, want)
	}
}
