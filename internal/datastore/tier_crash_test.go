package datastore

import (
	"bufio"
	"fmt"
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
)

// Environment contract for the re-exec'd child of TestTierCrashKill9:
// the durable directory, and the seal/compact protocol stage at which the
// child SIGKILLs itself (tierTestHook).
const (
	tierCrashDirEnv   = "CAMPUSLAB_TIER_CRASH_DIR"
	tierCrashStageEnv = "CAMPUSLAB_TIER_CRASH_STAGE"
)

// tierCrashBatches is the exact acked workload: the child ingests and
// acks all of them (FsyncAlways) before it starts the tier mutation that
// kills it, so recovery owes every single one back.
const tierCrashBatches = 30

// tierCrashRetainBefore is the horizon of the retain stages' fatal
// retention pass: walFrames' clamped timestamps stop at 4ms, so it is past
// every sealed row and the pass drops whatever has been sealed.
const tierCrashRetainBefore = 5 * time.Millisecond

// tierCrashPrepare builds what the stage's fatal mutation works on: two
// thin seals (the confetti a compaction merges) or one sealed prefix (what
// a retention pass drops). The seal stages need nothing.
func tierCrashPrepare(st *Store, stage string) error {
	var keeps []uint64
	switch {
	case strings.HasPrefix(stage, "compact-"):
		keeps = []uint64{100, 50}
	case strings.HasPrefix(stage, "retain-"):
		keeps = []uint64{100}
	}
	for _, keep := range keeps {
		if _, err := st.sealHot(keep); err != nil {
			return err
		}
	}
	return nil
}

// tierCrashMutate runs the stage's mutation, the one the child dies in.
func tierCrashMutate(st *Store, stage string) (err error) {
	switch {
	case strings.HasPrefix(stage, "compact-"):
		_, err = st.CompactTier()
	case strings.HasPrefix(stage, "retain-"):
		_, err = st.RetainCold(tierCrashRetainBefore)
	default:
		_, err = st.sealHot(50)
	}
	return err
}

// TestTierCrashChildProcess is the child half of the tier kill -9 gate,
// selected by environment variable. It ingests a deterministic batch
// stream into a durable tiered store, acks each batch on stdout, then
// runs the stage's mutation — a seal, a compaction or a retention pass —
// with a hook that SIGKILLs the process at the requested protocol stage.
func TestTierCrashChildProcess(t *testing.T) {
	dir := os.Getenv(tierCrashDirEnv)
	if dir == "" {
		t.Skip("child-process helper; driven by TestTierCrashKill9")
	}
	stage := os.Getenv(tierCrashStageEnv)
	st, _, err := Recover(DurableConfig{
		Dir: dir, Fsync: FsyncAlways, Shards: 2,
		Tier: TierPolicy{Dir: filepath.Join(dir, "tier"), SegmentPackets: 40, MinSealPackets: 1},
	})
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
	if err := tierCrashPrepare(st, stage); err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	tierTestHook = func(s string) {
		if s == stage {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable; SIGKILL is not deliverable to a handler
		}
	}
	if err := tierCrashMutate(st, stage); err != nil {
		fmt.Println("ERR", err)
	}
	fmt.Println("ERR survived the crash stage") // hook did not fire
	os.Exit(1)
}

// TestTierCrashKill9 is the tier crash gate: a child acks a fixed batch
// stream under FsyncAlways, then kill -9s itself inside the seal, compact
// or retain protocol — after the segment files, after the manifest commit,
// and after the registry swap. Recovery must hold exactly the acked stream,
// with no lost and no duplicated packets, and be query-identical to an
// untiered serial rebuild of the same batches (less, for a committed
// retention pass, exactly the rows it set out to delete).
func TestTierCrashKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	ref := NewSharded(2)
	for i := 0; i < tierCrashBatches; i++ {
		if _, err := ref.AddBatch(walFrames(5, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	want := tierFingerprint(t, ref)
	// Retention deletes on purpose, and both retain stages lie past its
	// commit point: what recovery owes back is what a retention pass that
	// was not killed leaves of the same acked stream.
	retained := NewSharded(2)
	if err := retained.EnableTiering(TierPolicy{Dir: t.TempDir(), SegmentPackets: 40, MinSealPackets: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tierCrashBatches; i++ {
		if _, err := retained.AddBatch(walFrames(5, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tierCrashPrepare(retained, "retain-"); err != nil {
		t.Fatal(err)
	}
	if err := tierCrashMutate(retained, "retain-"); err != nil {
		t.Fatal(err)
	}
	wantRetained := tierFingerprint(t, retained)
	if wantRetained.total == 0 || wantRetained.total >= want.total {
		t.Fatalf("the reference retention pass left %d of %d packets; want some dropped, some kept", wantRetained.total, want.total)
	}

	for _, stage := range []string{"seal-files", "seal-manifest", "compact-files", "compact-manifest",
		"compact-swap", "retain-manifest", "retain-swap"} {
		t.Run(stage, func(t *testing.T) {
			want := want
			if strings.HasPrefix(stage, "retain-") {
				want = wantRetained
			}
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "TestTierCrashChildProcess")
			cmd.Env = append(os.Environ(),
				tierCrashDirEnv+"="+dir, tierCrashStageEnv+"="+stage)
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
			cmd.Wait() // child killed itself at the hook stage
			if lastAcked != tierCrashBatches-1 {
				t.Fatalf("child acked %d batches, want %d", lastAcked+1, tierCrashBatches)
			}

			st, _, err := Recover(DurableConfig{
				Dir: dir, Fsync: FsyncAlways, Shards: 2,
				Tier: TierPolicy{Dir: filepath.Join(dir, "tier"), SegmentPackets: 40, MinSealPackets: 1},
			})
			if err != nil {
				t.Fatalf("recovery after kill -9 at %s: %v", stage, err)
			}
			defer st.CloseWAL()
			got := tierFingerprint(t, st)
			if got.total != want.total {
				t.Fatalf("kill -9 at %s: recovered %d packets, acked stream has %d (lost or duplicated)",
					stage, got.total, want.total)
			}
			seen := make(map[PacketID]bool, len(got.scan))
			for _, sp := range got.scan {
				if seen[sp.ID] {
					t.Fatalf("kill -9 at %s: packet ID %d recovered twice", stage, sp.ID)
				}
				seen[sp.ID] = true
			}
			compareTierPrints(t, stage, want, got)

			// The recovered store must keep working: a fresh seal on top of
			// whatever generation survived, then a final full check.
			if _, err := st.sealHot(20); err != nil {
				t.Fatalf("post-recovery seal: %v", err)
			}
			if ts := st.TierStats(); ts.ColdPackets == 0 {
				t.Fatalf("post-recovery seal left cold tier empty: %+v", ts)
			}
			compareTierPrints(t, stage+" post-reseal", want, tierFingerprint(t, st))
		})
	}
}

// TestTierCrashRecoveredMatchesManifest: crashing between the manifest
// commit and the registry swap (the in-RAM step) must behave exactly like
// crashing after the whole seal — EnableTiering's watermark trim is the
// idempotent dedup.
func TestTierCrashSwapEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	// The "seal-manifest" stage in TestTierCrashKill9 already kills between
	// manifest and swap; this test asserts the on-disk layout is sane: the
	// manifest's segments all exist and parse, and no orphan temp files
	// remain after recovery.
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestTierCrashChildProcess")
	cmd.Env = append(os.Environ(),
		tierCrashDirEnv+"="+dir, tierCrashStageEnv+"="+"seal-manifest")
	out, _ := cmd.StdoutPipe()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
	}
	cmd.Wait()

	tierDir := filepath.Join(dir, "tier")
	st, _, err := Recover(DurableConfig{
		Dir: dir, Fsync: FsyncAlways, Shards: 2,
		Tier: TierPolicy{Dir: tierDir, SegmentPackets: 40, MinSealPackets: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseWAL()
	_, _, names, ok, err := loadManifest(tierDir)
	if err != nil || !ok {
		t.Fatalf("manifest after recovery: ok=%v err=%v", ok, err)
	}
	if len(names) == 0 {
		t.Fatal("seal-manifest crash should leave committed segments")
	}
	onDisk, err := filepath.Glob(filepath.Join(tierDir, "seg-*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	var diskNames []string
	for _, p := range onDisk {
		diskNames = append(diskNames, filepath.Base(p))
	}
	sort.Strings(names)
	sort.Strings(diskNames)
	if !reflect.DeepEqual(names, diskNames) {
		t.Fatalf("manifest/disk mismatch after recovery:\nmanifest %v\ndisk     %v", names, diskNames)
	}
	if tmps, _ := filepath.Glob(filepath.Join(tierDir, "*.tmp*")); len(tmps) != 0 {
		t.Fatalf("stale temp files survived recovery: %v", tmps)
	}
}
