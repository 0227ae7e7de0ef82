package datastore

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"campuslab/internal/faults"
)

// walCrashChildEnv marks the re-exec'd child of TestWALCrashKill9.
const walCrashChildEnv = "CAMPUSLAB_WAL_CRASH_DIR"

// TestWALCrashChildProcess is not a test: it is the child half of the
// kill-9 experiment, selected by environment variable. It ingests a
// deterministic batch stream into a durable store under FsyncAlways,
// reporting each acknowledged batch on stdout, until it is killed.
func TestWALCrashChildProcess(t *testing.T) {
	dir := os.Getenv(walCrashChildEnv)
	if dir == "" {
		t.Skip("child-process helper; driven by TestWALCrashKill9")
	}
	st, _, err := Recover(DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2})
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	for i := 0; i < 100000; i++ {
		if _, err := st.AddBatch(walFrames(5, i), 0); err != nil {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		// The batch is fsynced (FsyncAlways) before AddBatch returns, so
		// this line only ever reports durable acknowledgements.
		fmt.Fprintf(out, "acked %d\n", i)
		out.Flush()
	}
	os.Exit(0)
}

// TestWALCrashKill9 is the no-warning crash gate: a child process ingests
// under FsyncAlways and is SIGKILLed mid-stream; recovery must hold every
// batch the child acknowledged, and the recovered store must be
// byte-identical to a serial rebuild of exactly that prefix.
func TestWALCrashKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestWALCrashChildProcess")
	cmd.Env = append(os.Environ(), walCrashChildEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Read acknowledgements until enough batches are durable, then kill
	// with no warning whatsoever.
	lastAcked := -1
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "ERR") {
			cmd.Process.Kill()
			t.Fatalf("child failed: %s", line)
		}
		if n, ok := strings.CutPrefix(line, "acked "); ok {
			if v, err := strconv.Atoi(n); err == nil {
				lastAcked = v
			}
		}
		if lastAcked >= 20 {
			break
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; the kill makes the exit status irrelevant
	if lastAcked < 20 {
		t.Fatalf("child died before acking 20 batches (last %d)", lastAcked)
	}

	st, rs, err := Recover(DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseWAL()
	got := st.Stats().Packets
	if got < uint64(lastAcked+1)*5 {
		t.Fatalf("kill -9 lost acked batches: recovered %d packets, child acked %d batches (stats %+v)",
			got, lastAcked+1, rs)
	}
	if got%5 != 0 {
		t.Fatalf("recovered %d packets: a torn batch was partially applied", got)
	}
	// Byte-identity against a serial rebuild of the recovered prefix: the
	// survivor is exactly the acked stream, not merely the right size.
	ref := NewSharded(2)
	for i := 0; i < int(got/5); i++ {
		if _, err := ref.AddBatch(walFrames(5, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if d := surfaceOf(ref).diff(st); d != "" {
		t.Fatal("recovered store diverged from the acked prefix: " + d)
	}
}

// BenchmarkWALRecovery measures crash-to-ready time: snapshot load plus
// WAL replay for a directory with a checkpoint and a replay backlog.
func BenchmarkWALRecovery(b *testing.B) {
	dir := b.TempDir()
	st, _, err := Recover(DurableConfig{Dir: dir, Fsync: fsyncNone, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := st.AddBatch(walFrames(20, i), 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.CheckpointDir(dir); err != nil {
		b.Fatal(err)
	}
	for i := 100; i < 200; i++ { // replay backlog on top of the snapshot
		if _, err := st.AddBatch(walFrames(20, i), 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.FlushWAL(); err != nil {
		b.Fatal(err)
	}
	st.CloseWAL()

	base, err := listSegments(faults.OS, dir)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, rs, err := Recover(DurableConfig{Dir: dir, Fsync: fsyncNone, Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		if rs.WALPackets == 0 {
			b.Fatal("benchmark dir had no replay backlog")
		}
		rec.CloseWAL()
		b.StopTimer()
		// Each Recover opens a fresh (empty) live segment; sweep it so
		// later iterations replay the same directory, not an ever-growing
		// pile of header-only files.
		segs, _ := listSegments(faults.OS, dir)
		for _, seq := range segs[len(base):] {
			os.Remove(filepath.Join(dir, segName(seq)))
		}
		b.StartTimer()
	}
}

// TestWALCrashEnumeration is the WAL crash gate: ingest under FsyncAlways
// into segments small enough to rotate every few batches, and let the
// machine die after file operation k — for every k the ingest issues, under
// a process kill, a power loss and a torn write. Recovery must hold every
// acked batch, no batch in part, and nothing but a prefix of the batches
// attempted: the store is byte-identical to a serial rebuild of that prefix.
// The second leg checkpoints halfway through the stream, so the crash also
// lands inside the checkpoint, between its publish and its truncation, and
// in the batches acked after it.
func TestWALCrashEnumeration(t *testing.T) {
	const dir, batches = "/data", 12
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2, SegmentBytes: 600}
	rebuilt := make([]storeSurface, batches+1)
	for n := range rebuilt {
		ref := NewSharded(2)
		for i := 0; i < n; i++ {
			if _, err := ref.AddBatch(walFrames(5, i), 0); err != nil {
				t.Fatal(err)
			}
		}
		rebuilt[n] = surfaceOf(ref)
	}
	for _, leg := range []struct {
		name string
		ckpt int // batches acked before the checkpoint (-1: none)
	}{{"ingest", -1}, {"checkpoint-midstream", batches / 2}} {
		t.Run(leg.name, func(t *testing.T) {
			// run ingests until the file system dies after k operations (k < 0:
			// never) and returns how many batches were acked.
			run := func(k int) (*memFS, int) {
				mfs := newMemFS(int64(k))
				st, _, err := recoverOn(mfs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if k >= 0 {
					mfs.crashAfter(k)
				}
				acked := 0
				for ; acked < batches; acked++ {
					if acked == leg.ckpt && st.CheckpointDir(dir) != nil {
						break
					}
					if _, err := st.AddBatch(walFrames(5, acked), 0); err != nil {
						break
					}
				}
				return mfs, acked
			}
			mfs, acked := run(-1)
			n := mfs.opCount()
			if acked != batches {
				t.Fatalf("healthy ingest acked %d of %d batches", acked, batches)
			}
			if segs, _ := listSegments(mfs, dir); len(segs) < 3 {
				t.Fatalf("ingest wrote %d segments; the test needs rotations", len(segs))
			}
			t.Logf("%d file operations, each crashed after under %v", n, crashModes)
			for k := 0; k <= n; k++ {
				mfs, acked := run(k)
				for _, mode := range crashModes {
					name := fmt.Sprintf("crash after operation %d of %d (%s), %d batches acked", k, n, mode, acked)
					st, _, err := recoverOn(mfs.crash(mode), cfg)
					if err != nil {
						t.Fatalf("%s: recovery: %v", name, err)
					}
					got := st.Stats().Packets
					st.CloseWAL()
					if got%5 != 0 || got/5 < uint64(acked) || got/5 > uint64(min(acked+1, batches)) {
						t.Fatalf("%s: recovered %d packets", name, got)
					}
					if d := rebuilt[got/5].diff(st); d != "" {
						t.Fatalf("%s: recovered store diverged from the first %d batches: %s", name, got/5, d)
					}
				}
			}
		})
	}
}

// TestRecoverFreshDirPowerLoss: a batch acked under FsyncAlways in a
// directory that Recover created survives a power cut, and so does a
// checkpointed seal into a tier directory that EnableTiering created
// outside it. Before the parent directories were synced on creation, the
// power cut took each new directory's entry, and the data with it.
func TestRecoverFreshDirPowerLoss(t *testing.T) {
	cfg := DurableConfig{Dir: "/var/lab/data", Fsync: FsyncAlways, Shards: 2}
	for _, tiered := range []bool{false, true} {
		if tiered {
			cfg.Tier = TierPolicy{Dir: "/cold/lab/tier", SegmentPackets: 40, MinSealPackets: 1}
		}
		mfs := newMemFS(1)
		st, _, err := recoverOn(mfs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := st.AddBatch(walFrames(5, i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if tiered {
			// The checkpoint truncates the log, so the sealed rows live
			// only in the tier directory.
			if _, err := st.sealHot(5); err != nil {
				t.Fatal(err)
			}
			if err := st.CheckpointDir(cfg.Dir); err != nil {
				t.Fatal(err)
			}
		}
		rec, _, err := recoverOn(mfs.crash(crashPowerLoss), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Stats().Packets + rec.Stats().ColdPackets; got != 20 {
			t.Fatalf("tiered=%v: %d of 20 acked packets survived the power cut", tiered, got)
		}
		rec.CloseWAL()
	}
}

// TestCheckpointDirFailsTyped fails each file operation of CheckpointDir in
// turn with ENOSPC and with EIO. The error carries the errno; a failed
// checkpoint never wedges the log, so WALStats reports no error and every
// batch acked after the failure is acked; and recovery of what survives a
// crash right after holds every acked batch exactly once.
func TestCheckpointDirFailsTyped(t *testing.T) {
	const dir = "/data"
	cfg := DurableConfig{Dir: dir, Fsync: FsyncAlways, Shards: 2, SegmentBytes: 600}
	// setup acks 8 batches across several segments and one earlier
	// checkpoint, then evicts them all, so truncation and the snapshot
	// sweep both have work. Eviction is not logged: recovery owes the
	// evicted rows back unless the failed checkpoint survived.
	setup := func() (*memFS, *Store) {
		mfs := newMemFS(1)
		st, _, err := recoverOn(mfs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := st.AddBatch(walFrames(5, i), 0); err != nil {
				t.Fatal(err)
			}
			if i == 3 {
				if err := st.CheckpointDir(dir); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := st.EvictBefore(5 * time.Millisecond); n != 40 {
			t.Fatalf("evicted %d packets, want 40", n)
		}
		return mfs, st
	}
	mfs, st := setup()
	start := mfs.opCount()
	if err := st.CheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	n := mfs.opCount() - start
	for _, errno := range []syscall.Errno{syscall.ENOSPC, syscall.EIO} {
		for k := 1; k <= n; k++ {
			name := fmt.Sprintf("%v at operation %d of %d", errno, k, n)
			mfs, st := setup()
			ref := surfaceOf(st)
			mfs.failOp("", "", k, errno)
			err := st.CheckpointDir(dir)
			if err != nil && !errors.Is(err, errno) {
				t.Fatalf("%s: CheckpointDir returned %v, which is not %v", name, err, errno)
			}
			if err := st.WALStats().Err; err != nil {
				t.Fatalf("%s: the checkpoint wedged the log: %v", name, err)
			}
			if d := ref.diff(st); d != "" {
				t.Fatalf("%s: the checkpoint changed the store: %s", name, d)
			}
			acked := 8
			for ; acked < 12; acked++ {
				if _, err := st.AddBatch(walFrames(5, acked), 0); err != nil {
					t.Fatalf("%s: batch %d after the checkpoint: %v", name, acked, err)
				}
			}
			for _, mode := range crashModes {
				img := mfs.crash(mode)
				_, stamp, _, _ := findSnapshot(img, dir)
				rec, _, err := recoverOn(img, cfg)
				if err != nil {
					t.Fatalf("%s, %s: recovery: %v", name, mode, err)
				}
				ref := NewSharded(2)
				for i := 0; i < acked; i++ {
					if _, err := ref.AddBatch(walFrames(5, i), 0); err != nil {
						t.Fatal(err)
					}
					if i == 7 && stamp == 2 {
						ref.EvictBefore(5 * time.Millisecond)
					}
				}
				if d := surfaceOf(ref).diff(rec); d != "" {
					t.Fatalf("%s, %s: recovered %d packets, not exactly the %d acked batches: %s", name, mode, rec.Stats().Packets, acked, d)
				}
				rec.CloseWAL()
			}
		}
	}
}
