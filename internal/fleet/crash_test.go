package fleet_test

import (
	"net"
	"testing"
	"time"

	"campuslab/internal/datastore"
	"campuslab/internal/faults"
	"campuslab/internal/fleet"
)

// faultyConn wraps a client connection and consults a fault schedule on
// every batch write. A transient fault cuts the connection mid-message:
// half the bytes reach the server, then the socket dies — the torn-batch
// crash the protocol's CRC framing and all-or-nothing ingest exist for.
type faultyConn struct {
	net.Conn
	inj *faults.Schedule
}

func (c *faultyConn) Write(b []byte) (int, error) {
	if len(b) > 0 && fleet.MsgType(b[0]) == fleet.MsgBatch {
		if err := c.inj.Fail("fleet.batch"); err != nil {
			n, _ := c.Conn.Write(b[:len(b)/2])
			c.Conn.Close()
			return n, err
		}
	}
	return c.Conn.Write(b)
}

// TestCrashMidBatchDurability kills the campus connection in the middle
// of a batch write and checks the full recovery contract:
//
//   - the torn batch is never partially ingested (all-or-nothing);
//   - the client's retry-with-backoff reconnects and resumes without
//     duplicating a single PacketID;
//   - after a crash+Recover of the durable store, everything acked is
//     present, byte-identical — an ack really is a durability receipt.
func TestCrashMidBatchDurability(t *testing.T) {
	dir := t.TempDir()
	st, rs, err := datastore.Recover(datastore.DurableConfig{Dir: dir, Fsync: datastore.FsyncAlways, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotPackets+rs.WALPackets != 0 {
		t.Fatalf("fresh dir recovered %+v", rs)
	}
	addr := startServer(t, st, fleet.ServerConfig{})

	// Cut the 2nd batch write mid-message (and, on a later batch, a 2nd
	// cut to prove repeated faults stay safe).
	inj := faults.NewSchedule().
		FailCalls("fleet.batch", 2, 2).
		FailCalls("fleet.batch", 5, 5)

	var slept []time.Duration
	cl, err := fleet.DialCampus(fleet.ClientConfig{
		Campus: "ucsb",
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &faultyConn{Conn: conn, inj: inj}, nil
		},
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const batches, perBatch = 4, 50
	frames := synthFrames(batches*perBatch, 13)
	var firstIDs []uint64
	for b := 0; b < batches; b++ {
		ack, err := cl.SendBatch(frames[b*perBatch : (b+1)*perBatch])
		if err != nil {
			t.Fatalf("batch %d: %v", b+1, err)
		}
		if ack.Ingested != perBatch {
			t.Fatalf("batch %d ack %+v", b+1, ack)
		}
		firstIDs = append(firstIDs, ack.First)
	}
	if len(slept) == 0 {
		t.Fatal("retries never backed off")
	}

	// No duplicates, no gaps: acked batches take consecutive ID ranges.
	for b := 1; b < batches; b++ {
		if firstIDs[b] != firstIDs[b-1]+perBatch {
			t.Fatalf("batch first-IDs %v: torn batch leaked partial frames", firstIDs)
		}
	}
	if got := st.Stats().Packets; got != batches*perBatch {
		t.Fatalf("store has %d packets, want %d", got, batches*perBatch)
	}
	live := st.Digest()

	// Crash: detach the WAL without a checkpoint and recover from disk.
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	st2, rs2, err := datastore.Recover(datastore.DurableConfig{Dir: dir, Fsync: datastore.FsyncAlways, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.CloseWAL()
	if rs2.Torn {
		t.Fatalf("recovery reports torn log: %+v", rs2)
	}
	if got := st2.Digest(); got != live {
		t.Fatal("recovered store differs from acked live store")
	}
}
