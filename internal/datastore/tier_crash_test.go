package datastore

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"campuslab/internal/faults"
)

// tierCrashDirEnv is the durable directory of TestTierCrashKill9's
// re-exec'd child.
const tierCrashDirEnv = "CAMPUSLAB_TIER_CRASH_DIR"

// tierCrashBatches is the exact acked workload: every crash test below
// acks all of them (FsyncAlways) before it starts the mutation that is
// killed, so recovery owes every single one back.
const tierCrashBatches = 30

// tierCrashRetainBefore is the horizon of the fatal retention pass:
// walFrames' clamped timestamps stop at 4ms, so it is past every sealed row
// and the pass drops whatever has been sealed.
const tierCrashRetainBefore = 5 * time.Millisecond

// tierCrashConfig is the durable tiered store every tier crash test runs.
// Its WAL segments hold two batches each, so a checkpoint that moves the
// replay position has segments to remove.
func tierCrashConfig(dir string) DurableConfig {
	return DurableConfig{
		Dir: dir, Fsync: FsyncAlways, Shards: 2, SegmentBytes: 600,
		Tier: TierPolicy{Dir: filepath.Join(dir, "tier"), SegmentPackets: 40, MinSealPackets: 1},
	}
}

// tierCrashPrepare builds what a mutation works on: two thin seals (the
// confetti a compaction merges), one sealed prefix (what a retention pass
// drops, and what a checkpoint is taken beside), or a sealed prefix, a
// checkpoint and a second seal (so the checkpoint under test moves the
// replay position mid-stream, past segments the earlier one still needs).
// A seal needs nothing.
func tierCrashPrepare(st *Store, mutation, dir string) error {
	var keeps []uint64
	switch mutation {
	case "compact":
		keeps = []uint64{100, 50}
	case "retain", "checkpoint":
		keeps = []uint64{100}
	case "checkpoint-midstream":
		keeps = []uint64{100, 0, 40}
	}
	for _, keep := range keeps {
		var err error
		if keep == 0 {
			err = st.CheckpointDir(dir)
		} else {
			_, err = st.sealHot(keep)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// tierCrashMutate runs the mutation a crash lands in.
func tierCrashMutate(st *Store, mutation, dir string) (err error) {
	switch mutation {
	case "compact":
		_, err = st.CompactTier()
	case "retain":
		_, err = st.RetainCold(tierCrashRetainBefore)
	case "checkpoint", "checkpoint-midstream":
		err = st.CheckpointDir(dir)
	default:
		_, err = st.sealHot(50)
	}
	return err
}

// tierCrashRefs are the stores recovery owes back: the acked stream, and
// what a retention pass that was not killed leaves of it.
func tierCrashRefs(t *testing.T) (want, wantRetained tierView) {
	t.Helper()
	ref := NewSharded(2)
	for i := 0; i < tierCrashBatches; i++ {
		if _, err := ref.AddBatch(walFrames(5, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	want = tierViewOf(ref)
	total := ref.Stats().Packets
	retained := NewSharded(2)
	if err := retained.EnableTiering(tierCrashConfig(t.TempDir()).Tier); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tierCrashBatches; i++ {
		if _, err := retained.AddBatch(walFrames(5, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tierCrashPrepare(retained, "retain", ""); err != nil {
		t.Fatal(err)
	}
	if err := tierCrashMutate(retained, "retain", ""); err != nil {
		t.Fatal(err)
	}
	wantRetained = tierViewOf(retained)
	if kept := len(wantRetained.summaries); kept == 0 || uint64(kept) >= total {
		t.Fatalf("the reference retention pass left %d of %d packets; want some dropped, some kept", kept, total)
	}
	return want, wantRetained
}

// checkTierRecovery is what every tier crash owes: recovery of the surviving
// image holds exactly the want stream, with no lost and no duplicated
// packet, query-identical to the reference; the manifest names exactly the
// segment files on disk and no temp file is left; and the store keeps
// working — a fresh seal on top of whatever generation survived.
func checkTierRecovery(t *testing.T, name string, fsys faults.FS, dir string, want tierView) {
	t.Helper()
	st, _, err := recoverOn(fsys, tierCrashConfig(dir))
	if err != nil {
		t.Fatalf("recovery after %s: %v", name, err)
	}
	defer st.CloseWAL()
	if ss := st.Stats(); ss.Packets+ss.ColdPackets != uint64(len(want.summaries)) {
		t.Fatalf("%s: recovered %d packets, acked stream has %d (lost or duplicated)", name, ss.Packets+ss.ColdPackets, len(want.summaries))
	}
	seen := make(map[PacketID]bool, len(want.summaries))
	st.Scan(func(sp *StoredPacket) bool {
		if seen[sp.ID] {
			t.Fatalf("%s: packet ID %d recovered twice", name, sp.ID)
		}
		seen[sp.ID] = true
		return true
	})
	if d := want.diff(st); d != "" {
		t.Fatalf("%s: %s", name, d)
	}

	tierDir := filepath.Join(dir, "tier")
	_, _, names, _, err := loadManifest(fsys, tierDir)
	if err != nil {
		t.Fatalf("%s: manifest after recovery: %v", name, err)
	}
	diskNames := matchDir(fsys, tierDir, "seg-*"+segSuffix)
	sort.Strings(names)
	if len(names) != len(diskNames) || len(names) > 0 && !reflect.DeepEqual(names, diskNames) {
		t.Fatalf("%s: manifest/disk mismatch after recovery:\nmanifest %v\ndisk     %v", name, names, diskNames)
	}
	for _, d := range []string{dir, tierDir} {
		if tmps := matchDir(fsys, d, "*.tmp*"); len(tmps) != 0 {
			t.Fatalf("%s: stale temp files survived recovery in %s: %v", name, d, tmps)
		}
	}

	if _, err := st.sealHot(20); err != nil {
		t.Fatalf("%s: post-recovery seal: %v", name, err)
	}
	if ts := st.TierStats(); ts.ColdPackets == 0 {
		t.Fatalf("%s: post-recovery seal left cold tier empty: %+v", name, ts)
	}
	if d := want.diff(st); d != "" {
		t.Fatalf("%s post-reseal: %s", name, d)
	}
}

// TestTierCrashEnumeration is the tier crash gate: a store acks a fixed
// batch stream under FsyncAlways, then the machine dies after file
// operation k of a seal, a compaction, a retention pass or a checkpoint
// (the first of the store's, or one that moves the replay position) —
// for every k the mutation issues, and under a process kill, a power loss
// and a torn write alike. Recovery of what survives must pass
// checkTierRecovery. A retention pass deletes on purpose: recovery owes the
// unretained stream until its manifest rename is durable, and the
// retained one from then on, decided from the surviving manifest.
func TestTierCrashEnumeration(t *testing.T) {
	want, wantRetained := tierCrashRefs(t)
	const dir = "/data"
	manifest := filepath.Join(dir, "tier", tierManifestName)
	// setup acks the stream and prepares the mutation on a fresh file
	// system, then arms it to die after k more operations (k < 0: never).
	setup := func(t *testing.T, mutation string, k int) (*memFS, *Store) {
		t.Helper()
		mfs := newMemFS(int64(k))
		st, _, err := recoverOn(mfs, tierCrashConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tierCrashBatches; i++ {
			if _, err := st.AddBatch(walFrames(5, i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := tierCrashPrepare(st, mutation, dir); err != nil {
			t.Fatal(err)
		}
		if k >= 0 {
			mfs.crashAfter(k)
		}
		return mfs, st
	}
	for _, mutation := range []string{"seal", "compact", "retain", "checkpoint", "checkpoint-midstream"} {
		t.Run(mutation, func(t *testing.T) {
			// A run that does not crash counts the mutation's operations
			// and records the manifests either side of it.
			mfs, st := setup(t, mutation, -1)
			before, _ := mfs.ReadFile(manifest)
			start := mfs.opCount()
			if err := tierCrashMutate(st, mutation, dir); err != nil {
				t.Fatal(err)
			}
			n := mfs.opCount() - start
			after, _ := mfs.ReadFile(manifest)
			if n == 0 {
				t.Fatalf("%s issued no file operation", mutation)
			}
			t.Logf("%s: %d file operations, each crashed after under %v", mutation, n, crashModes)
			for k := 0; k <= n; k++ {
				mfs, st := setup(t, mutation, k)
				tierCrashMutate(st, mutation, dir) // fails from operation k+1 on
				for _, mode := range crashModes {
					img := mfs.crash(mode)
					name := fmt.Sprintf("%s crash after operation %d of %d (%s)", mutation, k, n, mode)
					w := want
					if mutation == "retain" {
						switch got, _ := img.ReadFile(manifest); {
						case bytes.Equal(got, after):
							w = wantRetained
						case !bytes.Equal(got, before):
							t.Fatalf("%s: the surviving manifest is neither the old nor the new one", name)
						}
					}
					checkTierRecovery(t, name, img, dir, w)
				}
			}
		})
	}
}

// tierCrashStages are the points TestTierCrashKill9's child kills itself
// at, named mutation-point: after a mutation's new segment files
// ("-files"), after its manifest commit ("-manifest"), and after its
// registry swap ("-swap").
var tierCrashStages = []string{"seal-files", "seal-manifest", "compact-files", "compact-manifest",
	"compact-swap", "retain-manifest", "retain-swap"}

// killAtStageFS is the real disk, except that once armed with a stage the
// process SIGKILLs itself at that point of the mutation it then runs:
// "-files" when the manifest's temp file is created (every new segment
// file is durable, the manifest not begun), "-manifest" as soon as a
// rename has published the manifest (the commit point, before the
// directory sync and the registry swap), "-swap" at the first unlink of a
// replaced segment (the registry has swapped).
type killAtStageFS struct {
	faults.FS
	stage     string // "" until armed
	published bool   // the armed mutation has renamed its manifest
}

func (k *killAtStageFS) at(point string) bool {
	_, p, _ := strings.Cut(k.stage, "-")
	return p == point
}

func (k *killAtStageFS) kill() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable; SIGKILL is not deliverable to a handler
}

func (k *killAtStageFS) CreateTemp(dir, pattern string) (faults.File, error) {
	if k.at("files") && strings.HasPrefix(pattern, tierManifestName) {
		k.kill()
	}
	return k.FS.CreateTemp(dir, pattern)
}

func (k *killAtStageFS) Rename(oldpath, newpath string) error {
	err := k.FS.Rename(oldpath, newpath)
	if err == nil && k.stage != "" && filepath.Base(newpath) == tierManifestName {
		if k.at("manifest") {
			k.kill()
		}
		k.published = true
	}
	return err
}

func (k *killAtStageFS) Remove(path string) error {
	if k.at("swap") && k.published && strings.HasSuffix(path, segSuffix) {
		k.kill()
	}
	return k.FS.Remove(path)
}

// TestTierCrashChildProcess is the child half of the tier kill -9 smoke
// test, selected by environment variable, one subtest a stage. It ingests
// a deterministic batch stream into a durable tiered store, acks each
// batch on stdout, prepares the stage's mutation, then runs it, dying at
// the stage.
func TestTierCrashChildProcess(t *testing.T) {
	dir := os.Getenv(tierCrashDirEnv)
	if dir == "" {
		t.Skip("child-process helper; driven by TestTierCrashKill9")
	}
	for _, stage := range tierCrashStages {
		t.Run(stage, func(t *testing.T) {
			mutation, _, _ := strings.Cut(stage, "-")
			fsys := &killAtStageFS{FS: faults.OS}
			st, _, err := recoverOn(fsys, tierCrashConfig(dir))
			if err != nil {
				fmt.Println("ERR", err)
				os.Exit(1)
			}
			out := bufio.NewWriter(os.Stdout)
			for i := 0; i < tierCrashBatches; i++ {
				if _, err := st.AddBatch(walFrames(5, i), 0); err != nil {
					fmt.Println("ERR", err)
					os.Exit(1)
				}
				fmt.Fprintf(out, "acked %d\n", i)
				out.Flush()
			}
			if err := tierCrashPrepare(st, mutation, dir); err != nil {
				fmt.Println("ERR", err)
				os.Exit(1)
			}
			fsys.stage = stage
			if err := tierCrashMutate(st, mutation, dir); err != nil {
				fmt.Println("ERR", err)
			}
			fmt.Println("ERR survived the crash stage")
			os.Exit(1)
		})
	}
}

// TestTierCrashKill9 is the tier crash smoke test on the real page cache:
// a child acks a fixed batch stream under FsyncAlways, then kill -9s itself
// inside a seal, a compaction or a retention pass — after the segment
// files, after the manifest commit, and after the registry swap. Recovery
// must pass checkTierRecovery on the real disk, owing back the acked
// stream, less, for a retention pass past its commit point, exactly the
// rows it set out to delete. TestTierCrashEnumeration covers every crash
// point in memory.
func TestTierCrashKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	want, wantRetained := tierCrashRefs(t)
	for _, stage := range tierCrashStages {
		t.Run(stage, func(t *testing.T) {
			want := want
			if strings.HasPrefix(stage, "retain-") {
				want = wantRetained
			}
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestTierCrashChildProcess$/^"+stage+"$")
			cmd.Env = append(os.Environ(), tierCrashDirEnv+"="+dir)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
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
			}
			cmd.Wait()
			if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("the child did not kill itself at %s: %v", stage, cmd.ProcessState)
			}
			if lastAcked != tierCrashBatches-1 {
				t.Fatalf("child acked %d batches, want %d", lastAcked+1, tierCrashBatches)
			}
			checkTierRecovery(t, "kill -9 at "+stage, faults.OS, dir, want)
		})
	}
}

// TestTierManifestCorruptAtRest: a tier manifest cut to every shorter
// length, or with one of a seeded set of bits flipped, makes Recover fail
// with an error that names the manifest — no panic, and no store with a
// partly attached tier.
func TestTierManifestCorruptAtRest(t *testing.T) {
	const dir = "/data"
	cfg := tierCrashConfig(dir)
	manifest := filepath.Join(cfg.Tier.Dir, tierManifestName)
	mfs := newMemFS(1)
	st, _, err := recoverOn(mfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tierCrashBatches; i++ {
		if _, err := st.AddBatch(walFrames(5, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tierCrashPrepare(st, "compact", dir); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	good, err := mfs.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var bad [][]byte
	for n := range good {
		bad = append(bad, good[:n])
	}
	r := rand.New(rand.NewSource(1))
	for range 64 {
		b := bytes.Clone(good)
		b[r.Intn(len(b))] ^= 1 << r.Intn(8)
		bad = append(bad, b)
	}
	for i, b := range bad {
		img := mfs.crash(crashKill)
		f, err := img.OpenFile(manifest, os.O_WRONLY|os.O_TRUNC)
		if err == nil {
			_, err = f.Write(b)
		}
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := recoverOn(img, cfg)
		if err == nil || !strings.Contains(err.Error(), "tier manifest") || rec != nil {
			t.Fatalf("manifest %d (%d of %d bytes): Recover = %v, %v; want no store and an error naming the manifest",
				i, len(b), len(good), rec != nil, err)
		}
	}
}
