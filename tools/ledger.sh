#!/usr/bin/env bash
# tools/ledger.sh <pr> [side=checkout ...] — the per-PR benchmark ledger.
#
# Runs `bash bench/run.sh` for every BENCHMARK.json workload at seeds 1 and
# 7919 (the held-out seed) in each named checkout and writes
# BENCH_<pr>.json at the root of this one: a JSON array with one object per
# run — side, workload, seed, and the benchmark's own two output lines, the
# info line (machine fingerprint, sizes, round log, end-to-end and
# per-layer metrics) and the result line (correct / attempted / failed /
# every metric with its unit). With no side given it records this checkout
# as "change"; a perf PR records both sides of its claim:
#
#	git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
#	tools/ledger.sh 16 parent=/tmp/parent change=.
#
# One run per cell, always the same seeds and the benchmark's own run
# length, so every BENCH_<pr>.json compares with every other: the ledger is
# a trajectory, not the claim. Claims rest on alternating parent/change
# pairs (CHANGES.md).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[ $# -ge 1 ] || { echo "usage: tools/ledger.sh <pr> [side=checkout ...]" >&2; exit 2; }
pr=$1
shift
[ $# -ge 1 ] || set -- "change=$root"
workloads="collect_tiered fleet_stream query_mix develop_loop fastloop_replay"
seeds="1 7919"
out="$root/BENCH_$pr.json"
tmp="$out.tmp"
trap 'rm -f "$tmp"' EXIT

sep='['
for side in "$@"; do
    name=${side%%=*} dir=${side#*=}
    [ -f "$dir/bench/run.sh" ] || { echo "ledger: $dir has no bench/run.sh" >&2; exit 2; }
    for w in $workloads; do
        for seed in $seeds; do
            echo "ledger: $name $w seed $seed" >&2
            lines=$(cd "$dir" && bash bench/run.sh --workload "$w" --seed "$seed")
            [ "$(printf '%s\n' "$lines" | wc -l)" -eq 2 ] || { echo "ledger: expected an info and a result line, got:" >&2; printf '%s\n' "$lines" >&2; exit 1; }
            printf '%s\n{"side":"%s","workload":"%s","seed":%s,\n"info":%s,\n"result":%s}' "$sep" "$name" "$w" "$seed" \
                "$(printf '%s\n' "$lines" | sed -n 1p)" "$(printf '%s\n' "$lines" | sed -n 2p)" >>"$tmp"
            sep=','
        done
    done
done
printf '\n]\n' >>"$tmp"
mv "$tmp" "$out"
echo "ledger: wrote $out" >&2
