#!/bin/sh
# verify.sh — the repo's tier-1 verification gate.
#
# Runs the full static + test suite, then a focused race pass over the
# packages with real concurrency (control-loop fallback chains, sharded
# datastore, fault injectors). CI and pre-commit both call this script;
# a clean exit is the merge bar.
set -eu

cd "$(dirname "$0")"

# gate_tests FLAGS PKG NAME... runs exactly the named tests of PKG and fails
# unless each one ran and passed: a renamed or deleted test must break the
# gate, not leave "no tests to run" and a clean exit. FLAGS may be "". A
# single Test/sub NAME gates one subtest.
gate_tests() {
    flags=$1 pkg=$2
    shift 2
    case "$*" in
    */*) pat="^${1%%/*}\$/^${1#*/}\$" ;;
    *) pat="^($(echo "$*" | tr ' ' '|'))\$" ;;
    esac
    out=$(go test $flags -run "$pat" -v "$pkg" 2>&1) || {
        echo "$out"
        exit 1
    }
    gate_names "$out" "$pkg" "$@"
    echo "$out" | tail -n 1
}

# gate_names OUTPUT PKG NAME... is gate_tests for a package whose whole suite
# already ran once with -v: it checks the captured OUTPUT of that run instead
# of running anything, and fails unless each NAME has a `--- PASS` line in
# it. A renamed, deleted or skipped test still breaks the gate.
gate_names() {
    out=$1 pkg=$2
    shift 2
    for name in "$@"; do
        echo "$out" | grep -q "^ *--- PASS: $name " || {
            echo "verify: FAIL — $pkg: test $name did not run" >&2
            exit 1
        }
    done
}

# gate_bench BENCHTIME PKG NAME... runs the named benchmarks of PKG with
# -benchmem, prints their result lines and fails unless each name produced
# at least one.
gate_bench() {
    benchtime=$1 pkg=$2
    shift 2
    out=$(go test -run=NONE -bench "^($(echo "$*" | tr ' ' '|'))\$" -benchtime "$benchtime" -benchmem "$pkg" 2>&1) || {
        echo "$out"
        exit 1
    }
    echo "$out" | grep '^Benchmark' || true
    for name in "$@"; do
        echo "$out" | grep -q "^$name[-/]" || {
            echo "verify: FAIL — $pkg: benchmark $name did not run" >&2
            exit 1
        }
    done
}

# gate_fuzz FUZZTIME PKG NAME fuzzes exactly the named target of PKG and
# fails unless the fuzzing engine actually ran it: `go test -fuzz` with a
# pattern that matches nothing prints a warning and exits 0. Minimizing a
# new interesting input is capped at one execution: a target whose coverage
# varies run to run (FuzzSnapshotLoad's pooled scratch) otherwise spends the
# whole smoke minimizing and runs a few dozen inputs instead of thousands.
gate_fuzz() {
    fuzztime=$1 pkg=$2 name=$3
    out=$(go test -run "^$name\$" -fuzz "^$name\$" -fuzztime "$fuzztime" -fuzzminimizetime 1x "$pkg" 2>&1) || {
        echo "$out"
        exit 1
    }
    echo "$out" | grep -q '^fuzz: elapsed: ' || {
        echo "$out"
        echo "verify: FAIL — $pkg: fuzz target $name did not run" >&2
        exit 1
    }
    echo "$out" | tail -n 1
}

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> exported surface (tools/apisurface -check: api/*.txt is current, and every exported name has a caller outside its package that is not only a test: no unused and no test class)"
SURFACE=$(go run ./tools/apisurface -check 2>&1) || {
    echo "$SURFACE"
    echo "verify: FAIL — exported surface: regenerate api/ with go run ./tools/apisurface; unexport or delete every name it reports unused, and give every name it reports test-only (class test) a production caller, or unexport it and move its test in-package, or delete it" >&2
    exit 1
}
echo "$SURFACE" | grep -E '^(package|total) '

echo "==> non-test lines per package (tools/lines.sh; the re-anchor reads internal/datastore from here)"
bash tools/lines.sh | grep -E ' (internal/datastore|total)$'

echo "==> go test ./... (with coverage gate)"
go test -coverprofile=coverage.out ./...
COVER=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
# Ratchet floor: measured 83.8% total when the fleet subsystem landed
# (was 82.0). Raise the floor when coverage rises; never lower it to
# merge.
COVER_FLOOR=83.0
echo "    total coverage: ${COVER}% (floor ${COVER_FLOOR}%)"
awk -v c="$COVER" -v f="$COVER_FLOOR" 'BEGIN { exit (c+0 >= f+0) ? 0 : 1 }' || {
    echo "verify: FAIL — coverage ${COVER}% below floor ${COVER_FLOOR}%" >&2
    exit 1
}

echo "==> benchmark module (bench/ is its own module; the root go test does not descend into it)"
(cd bench && go test ./...)

echo "==> answer hash gate (every workload, seed 1, one second: failed == 0, correct, output_hash == the newest ledger's)"
bash tools/hashgate.sh

echo "==> go test -race (control, core, datastore, faults, fleet, ml, xai, netsim, dataplane, features)"
# The datastore race pass is most of this script's wall time (~8 min on two
# cores; the other packages run beside it), so the race step runs once,
# verbosely, and every race gate below checks its output by name
# (gate_names) instead of running the test again.
RACE=$(go test -race -v ./internal/control ./internal/core ./internal/datastore ./internal/faults ./internal/fleet \
    ./internal/ml ./internal/xai ./internal/netsim ./internal/dataplane ./internal/features 2>&1) || {
    echo "$RACE" | grep -v '^=== \|^ *--- PASS' | tail -n 80
    exit 1
}
echo "$RACE" | grep '^ok'
echo "    tiered-store equivalence (tiered == untiered, byte for byte, across shards, workers, cache and read path)"
gate_names "$RACE" ./internal/datastore TestTieredStoreEquivalence TestTierFormatEquivalence
echo "    one ingest order (two writers whose clocks are an hour apart, by AddBatch, by IngestFrame and onto a tiered store: every slab (TS, ID) sorted, segments dense and time-ordered, windowed Count/Select == scan reference == a Scan walk, nothing hot below the seal watermark; attach refuses a manifest whose segments overlap in ID or step back in time; compaction merges only segments whose ID ranges meet)"
gate_names "$RACE" ./internal/datastore TestConcurrentWritersKeepTimeIndex TestConcurrentWritersKeepTimeIndex/AddBatch \
    TestConcurrentWritersKeepTimeIndex/IngestFrame TestConcurrentWritersKeepTimeIndex/tiered \
    TestEnableTieringRefusesOutOfOrderManifest TestEnableTieringRefusesOutOfOrderManifest/consecutive \
    TestEnableTieringRefusesOutOfOrderManifest/ids-overlap TestEnableTieringRefusesOutOfOrderManifest/ts-steps-back \
    TestCompactTierStopsAtIDGap
echo "    tier cache race (queries vs seal/compact churn with the block cache on)"
gate_names "$RACE" ./internal/datastore TestTierCacheQueryCompactRace TestTierIngestSealQueryRace
echo "    encode-ahead (published segments are the canonical bytes of their rows; stale blobs dropped within bound; writers, trips and queries race the encoder; a refused encode is loud and retried; an oversized frame is refused whole)"
gate_names "$RACE" ./internal/datastore TestSealPublishesEncodedAheadBytes TestEncodeAheadStaleBlobs TestEncodeAheadRace \
    TestSealEncodeFailureIsLoud TestOversizedFrameRefused TestOversizedFrameRefused/durable TestOversizedFrameRefused/tiered
echo "    tier cache policy (segmented LRU: a touched working set survives a one-pass scan over budget)"
gate_names "$RACE" ./internal/datastore TestTierCacheScanResistant TestTierCacheLRU
echo "    segment directory (shared budget, invalidation, corrupt columns, metadata-only Count, a residual Count that inflates no block, limit-bounded decode, exact window ≡ scan; a segment is one dense ID run: the encoder refuses a gap, a repeated ID or a step back in time, a header that misstates its run or says v3 is refused, and a cold find hits every row's ID and nothing beside the run)"
gate_names "$RACE" ./internal/datastore TestTierCacheMixedLRU TestSegDirBudgetRespected TestSegDirOversizeNotAdmitted \
    TestSegDirDroppedWithSegments TestSegDirCorruptColumnCachesNothing TestColdCountWindowedTouchesNoBlock \
    TestColdResidualCountInflatesNothing TestColdSelectLimitStopsDecoding TestTimeWindowPropertyEquivalence TestPlanWindowExact TestGetBitsMatchesBitLoop \
    TestSegmentEncodeRejectsUnsorted TestParseSegmentRefusesBrokenIDRange TestParseSegmentRefusesVersion3 \
    TestRunContract/cold/cache=on TestRunContract/cold/cache=off
echo "    key table (seal's postings == the decoded index column; hot, cold and keyVal/keyFlags agree on every key; README field table == compiler)"
gate_names "$RACE" ./internal/datastore TestBuildSegPostingsMatchesDecodeIndex TestHotAndColdIndexTheSameKeys TestFilterDocListsEveryField
echo "    crash recovery (a crash after any file operation of ingest or of a checkpoint mid-stream, under kill, power loss or a torn write, and kill -9 mid-ingest lose nothing acked; a fresh directory survives power loss; a failed checkpoint is typed, never wedges the log and loses nothing; a checkpoint flushes the log; eviction, seals and the checkpoint's cut renumber nothing and count every flow once; a log trimmed past the checkpoint is refused; a torn log is repaired; flows tied on time and hash reload; v2 to v6 snapshots are refused)"
gate_names "$RACE" ./internal/datastore TestWALCrashEnumeration TestWALCrashEnumeration/checkpoint-midstream TestWALCrashKill9 TestRecoverFreshDirPowerLoss \
    TestCheckpointDirFailsTyped TestCrashMidSaveLeavesOldSnapshot TestRecoverTornThenCrashAgain TestConcurrentIngestCheckpointQuery \
    TestRecoverAfterEviction TestRecoverTwinFlows TestRecoverRefusesLegacySnapshot TestRecoverAcrossCheckpointCut \
    TestRecoverRefusesTrimmedWAL TestCheckpointFlushesWAL TestRecoverCorruptMidLogThenCrashAgain \
    TestCheckpointCrashBeforeTruncateNoDuplicates TestCheckpointCrashMidTruncateNoDuplicates
echo "    tier crash (a crash after any file operation of a seal, compaction, retention pass or checkpoint — the first, or one that moves the replay position mid-stream — under kill, power loss or a torn write, and kill -9 at a manifest rename lose nothing acked; a corrupt manifest is refused), the write seams, and retention (through a checkpoint and a recovery) keeps exactly the flows eviction at the same horizon keeps"
gate_names "$RACE" ./internal/datastore TestTierCrashEnumeration TestTierCrashEnumeration/checkpoint-midstream TestTierCrashKill9 TestTierManifestCorruptAtRest \
    TestTierWriteFailureChangesNothing TestLoadAtShardCountMatchesDefaultLoad TestCommitTierRecomputesTotals \
    TestRetainedFlowsMatchUntieredEviction
echo "    atomic publish (a publish failed at any file operation up to its rename leaves the previous file)"
gate_names "$RACE" ./internal/faults TestPublishFileFailsWhole
echo "    fleet race gate (concurrent campus streams with skewed clocks, windowed Select == scan reference; coordinator during live ingest)"
gate_names "$RACE" ./internal/fleet TestRaceConcurrentCampusStreams TestRaceCoordinatorDuringStreaming TestStreamMatchesLocalIngest
echo "    development round (the federated round is worker-count independent)"
gate_names "$RACE" ./internal/core TestFederatedDeterministicAcrossWorkers
echo "    road test (two concurrent road tests of one lab share its campus and equal the serial ones)"
gate_names "$RACE" ./internal/core TestConcurrentRoadTestsShareCampus
echo "    ml equivalence gate (presorted CART, forest vote, early-exit and memoized decisions, Explain, routing == their reference implementations)"
gate_names "$RACE" ./internal/ml TestFitTreeMatchesReference TestFitForestMatchesReference \
    TestFitBoostMatchesReference TestForestVoteMatchesReference TestForestDecisionMatchesFullVote TestRadixSortOrders \
    TestFitRejectsBadDataset TestRuleForMatchesRules
gate_names "$RACE" ./internal/xai TestExplainMatchesEnumeration TestExtractMatchesPerRowSampling TestExtractRejectsRaggedReference
gate_names "$RACE" ./internal/netsim TestRoutingMatchesQuadraticReference
echo "    netsim replay (fingerprint pinned, one frame touches exactly its route, allocations flat in the frame count)"
gate_names "$RACE" ./internal/netsim TestReplayFingerprintPinned TestFrameTouchesExactlyItsRoute TestReplayAllocsFlat
echo "    dataplane fast path (concurrent install vs batch; every rank table == the count of cuts below each value; a memo that does not hit is bypassed)"
gate_names "$RACE" ./internal/dataplane TestConcurrentInstallDuringBatch TestConcurrentEnsembleInstallDuringBatch \
    TestSwitchPipelineEquivalence TestProcessBatchMatchesSequential TestClassifyBatchCommit \
    TestEnsembleMemoEquivalence TestEnsembleBatchPathsAgree TestEnsembleBatchWithMeters TestEnsembleRangeTables \
    TestEnsembleMemoCounters TestEnsembleMemoBypass
echo "    control fast loop (FeedBatch == per-frame feed: keeps, stats and switch counters, with a mitigation installed mid-batch)"
gate_names "$RACE" ./internal/control TestFeedBatchMatchesFeed TestFeedBatchMatchesFeed/controlplane \
    TestFeedBatchMatchesFeed/dataplane-ensemble

echo "    extractor determinism (window, pair and source-window datasets are a function of the store, not of map order)"
gate_names "$RACE" ./internal/features TestWindowedExtractorsDeterministic

echo "==> fleet coverage gate (package floor 85%)"
go test -coverprofile=fleet_coverage.out ./internal/fleet
FLEET_COVER=$(go tool cover -func=fleet_coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "    fleet coverage: ${FLEET_COVER}% (floor 85.0%)"
awk -v c="$FLEET_COVER" 'BEGIN { exit (c+0 >= 85.0) ? 0 : 1 }' || {
    echo "verify: FAIL — fleet coverage ${FLEET_COVER}% below floor 85.0%" >&2
    exit 1
}

echo "==> ensemble budget gate (over budget must degrade, never error)"
gate_tests "" ./internal/dataplane TestEnsembleBudgetDegradation TestEnsembleHotPathAllocs TestEnsembleCodeWordDeterminesLeaves

echo "==> bench smoke (compiled fast path, must stay 0 allocs/op)"
gate_bench 100x ./internal/dataplane BenchmarkSwitchProcess BenchmarkSwitchProcessPaths BenchmarkSwitchProcessBatch
# Every ensemble-dag leg — uniform-random, episode and all-distinct-code-word
# inputs — runs the batch entry point with its stack memo: one allocation
# there means the memo escaped to the heap.
ENS=$(gate_bench 20x ./internal/dataplane BenchmarkEnsembleInference)
echo "$ENS"
echo "$ENS" | awk '
    /^BenchmarkEnsembleInference\/ensemble-dag\// { seen++; for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i-1) != "0") bad = $1 " " $(i-1) }
    END { if (seen < 5) { print "verify: FAIL — BenchmarkEnsembleInference/ensemble-dag ran " seen + 0 " legs, want 5" > "/dev/stderr"; exit 1 }
          if (bad) { print "verify: FAIL — " bad " allocs/op on the ensemble fast path, want 0" > "/dev/stderr"; exit 1 } }'

# The control loop's FeedBatch leg runs the compiled ensemble through the
# batch evaluator and commits its counters once per batch: 0 allocs/op.
LOOP=$(gate_bench 100x ./internal/control BenchmarkLoopFeedDataplane)
echo "$LOOP"
echo "$LOOP" | awk '
    /^BenchmarkLoopFeedDataplane\/FeedBatch\// { seen++; for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i-1) != "0") bad = $1 " " $(i-1) }
    END { if (!seen) { print "verify: FAIL — BenchmarkLoopFeedDataplane has no FeedBatch leg" > "/dev/stderr"; exit 1 }
          if (bad) { print "verify: FAIL — " bad " allocs/op on the control fast loop, want 0" > "/dev/stderr"; exit 1 } }'

echo "==> bench smoke (learning: tree induction, forest vote must stay 0 allocs/op, batch labelling through the code-word memo, extraction, forest fit)"
LEARN=$(gate_bench 20x ./internal/ml BenchmarkFitTree BenchmarkForestPredict BenchmarkForestPredictBatch)
echo "$LEARN"
echo "$LEARN" | grep '^BenchmarkForestPredict-' | grep -q ' 0 allocs/op' || {
    echo "verify: FAIL — Forest.Predict allocates" >&2
    exit 1
}
gate_bench 5x ./internal/xai BenchmarkExtract
gate_bench 2x . BenchmarkFitForest

echo "==> bench smoke (store query engine: index vs scan)"
gate_bench 5x ./internal/datastore BenchmarkSelect BenchmarkCount

echo "==> bench smoke (cold tier: seal, the seal trip with its segments encoded ahead, segment encode, hot vs cold segment query sweep, cache on/off Select and metadata-only Count, eviction)"
gate_bench 2x ./internal/datastore BenchmarkSeal BenchmarkSealTrip BenchmarkEncodeSegment BenchmarkSegmentQuery BenchmarkColdSelect BenchmarkColdCount BenchmarkEvictBefore

echo "==> fuzz smoke (packet parser, labd dispatcher, filter parser, ensemble compiler, block + record codec, WAL replay, snapshot load, segment codec, block decoder and encoder, fleet protocol)"
gate_fuzz 10s ./internal/packet FuzzParse
gate_fuzz 5s ./cmd/labd FuzzDispatch
gate_fuzz 5s ./internal/datastore FuzzParseFilter
gate_fuzz 5s ./internal/dataplane FuzzEnsembleCompile
gate_fuzz 5s ./internal/frame FuzzFrame
gate_fuzz 5s ./internal/datastore FuzzWALReplay
gate_fuzz 5s ./internal/datastore FuzzSnapshotLoad
gate_fuzz 5s ./internal/datastore FuzzSegmentDecode
gate_fuzz 5s ./internal/inflate FuzzInflate
gate_fuzz 5s ./internal/deflate FuzzDeflate
gate_fuzz 5s ./internal/fleet FuzzFleetFrame

echo "==> fleet crash gate (torn mid-batch cut: all-or-nothing, retry never duplicates, acked == durable)"
gate_tests "" ./internal/fleet TestCrashMidBatchDurability TestServerDedupesRetriedBatch TestServerRejectsProtocolViolations

echo "==> chaos-soak smoke (E16: durability + self-healing lifecycle)"
gate_tests "" ./internal/experiments TestAllExperimentsRun/E16

echo "==> bench smoke (crash-to-ready recovery time)"
gate_bench 5x ./internal/datastore BenchmarkWALRecovery

echo "==> bench smoke (fleet ingest: loopback TCP vs in-process; allocation ceiling on the write path)"
# One 512-frame batch over loopback — client encode, server decode, store
# apply — measured 85-100 allocs/op from a cold store at 5x (653 before the
# batch arena: one make per record). The ceiling sits between the two, so an
# allocation per frame anywhere on the path trips it.
FLEET_ALLOCS_CEILING=150
FLEET=$(gate_bench 5x ./internal/fleet BenchmarkFleetIngest)
echo "$FLEET"
echo "$FLEET" | awk -v max="$FLEET_ALLOCS_CEILING" '
    /^BenchmarkFleetIngest\/loopback/ { seen = 1; for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i-1) + 0 > max) bad = $(i-1) }
    END { if (!seen) { print "verify: FAIL — BenchmarkFleetIngest/loopback did not run" > "/dev/stderr"; exit 1 }
          if (bad) { print "verify: FAIL — fleet loopback ingest " bad " allocs/op, ceiling " max > "/dev/stderr"; exit 1 } }'

echo "==> bench smoke (road test over a campus built once; allocation ceiling on the replay path)"
# One data-plane road test of 28 559 frames — loop set-up, a fresh network
# and the replay — measured 181 allocs/op (160 553 when every frame resolved
# its own path and event and every batch its own span closure). The ceiling
# sits far below one allocation per frame, so a per-frame, per-hop or
# per-batch allocation anywhere on the path trips it.
ROADTEST_ALLOCS_CEILING=1000
ROAD=$(gate_bench 5x ./internal/roadtest BenchmarkRoadTest)
echo "$ROAD"
echo "$ROAD" | awk -v max="$ROADTEST_ALLOCS_CEILING" '
    /^BenchmarkRoadTest/ { seen = 1; for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i-1) + 0 > max) bad = $(i-1) }
    END { if (!seen) { print "verify: FAIL — BenchmarkRoadTest did not run" > "/dev/stderr"; exit 1 }
          if (bad) { print "verify: FAIL — road test " bad " allocs/op, ceiling " max > "/dev/stderr"; exit 1 } }'

echo "==> allocation ceilings on the ingest path (anonymize cuts frames from a chunk; a new flow cuts its metadata from a slab)"
# Apply measured 0.002-0.003 allocations per 170-byte frame (one 64 KiB chunk
# per 385 frames; one buffer per frame before);
# the ceiling is 0.05. A 2048-packet batch of new single-packet flows
# measured 43 allocations (51 while flows kept packet-ID lists, 4 131
# before the slabs); the ceiling is 256.
# Both tests hold their ceilings themselves and fail above them.
gate_tests "" ./internal/privacy TestApplyAllocsAmortised TestApplyOutputsNeverOverlap
gate_tests "" ./internal/datastore TestAddBatchNewFlowsAllocs TestFlowSlabWindowsStayApart

echo "==> allocation ceiling on the query path (the filter tokenizer classifies an identifier without a failing probe)"
# A windowed selective query parsed in 32 allocations (67 when every
# identifier ran the address, number and duration probes, each failure
# allocating an error); the test holds a ceiling of 38, beside the oracle
# test that pins the fast path to the full probe chain.
gate_tests "" ./internal/datastore TestParseFilterAllocs TestClassifyWordMatchesProbes

echo "verify: OK"
