package datastore

import (
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentIngestCheckpointQuery hammers one durable store from
// three sides at once — ingest writers, a checkpoint/truncate loop, and
// read-only queries — then proves the serial WAL replay reproduces the
// concurrent run byte-for-byte. Run under -race this doubles as the data
// race gate for the ingestMu/atomic-pointer protocol; the byte identity
// proves no acked batch can land in a truncated log without being in the
// snapshot, no matter how ingest and checkpoints interleave.
func TestConcurrentIngestCheckpointQuery(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Recover(DurableConfig{Dir: dir, Fsync: fsyncNone, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	const writers, batches, perBatch = 4, 25, 5
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // checkpoint + truncate loop
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.CheckpointDir(dir); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()
	aux.Add(1)
	go func() { // read-only queries
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = st.Stats()
			_ = st.LabelCounts()
			n := 0
			st.Scan(func(*StoredPacket) bool { n++; return n < 64 })
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				if _, err := st.AddBatch(walFrames(perBatch, g*1000+i), 0); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	if got := st.Stats().Packets; got != writers*batches*perBatch {
		t.Fatalf("stored %d packets, acked %d", got, writers*batches*perBatch)
	}
	if err := st.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	live := surfaceOf(st)
	st.CloseWAL() // crash: no final checkpoint

	st2, _, err := Recover(DurableConfig{Dir: dir, Fsync: fsyncNone, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.CloseWAL()
	if d := live.diff(st2); d != "" {
		t.Fatal("serial snapshot+WAL replay diverged from the concurrent store: " + d)
	}
}
