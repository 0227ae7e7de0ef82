#!/usr/bin/env bash
# tools/hashgate.sh — the per-workload answer gate.
#
# Runs every BENCHMARK.json workload once at seed 1 for one second and
# fails unless each run finished with no failed operation, checked itself
# correct, and printed the output_hash the newest BENCH_<pr>.json records
# in its change-side cell for that workload and seed. output_hash is the
# fingerprint of the first round's answers, so it does not depend on the
# run length: one second is enough to tell whether a change moved a byte of
# what the store, the models or the switch return. A PR that means to move
# one records the new hash by writing its own ledger (tools/ledger.sh).
#
# It also fails when a workload's allocs_per_op sits more than 10 % (the
# BENCHMARK.json bound) above that same ledger cell. Allocations per
# operation are a count, not a timing, so one second of one run reads them
# to within a few per cent. The check is one-sided: fewer allocations pass,
# and a PR that cuts them records its new count in its own ledger, which
# then holds every later change to it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ledger=$(ls "$root"/BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -n 1)
[ -n "$ledger" ] || { echo "hashgate: no BENCH_<pr>.json at $root" >&2; exit 2; }

for w in collect_tiered fleet_stream query_mix develop_loop fastloop_replay; do
    # A ledger cell is three lines: the key line, the info line, the result line.
    cell=$(grep -A2 "^{\"side\":\"change\",\"workload\":\"$w\",\"seed\":1,\$" "$ledger")
    want=$(printf '%s\n' "$cell" | sed -n 's/.*"output_hash":"\([0-9a-f]*\)".*/\1/p')
    [ -n "$want" ] || { echo "hashgate: FAIL — $(basename "$ledger") has no change-side $w seed 1 cell" >&2; exit 1; }
    want_allocs=$(printf '%s\n' "$cell" | sed -n 's/^"result":.*"allocs_per_op":{"value":\([0-9.e+-]*\),.*/\1/p')
    [ -n "$want_allocs" ] || { echo "hashgate: FAIL — $(basename "$ledger")'s change-side $w seed 1 cell has no allocs_per_op" >&2; exit 1; }
    lines=$(cd "$root" && bash bench/run.sh --workload "$w" --seed 1 --seconds 1)
    got=$(printf '%s\n' "$lines" | sed -n '1s/.*"output_hash":"\([0-9a-f]*\)".*/\1/p')
    result=$(printf '%s\n' "$lines" | sed -n 2p)
    case "$result" in
    '{"correct":true,'*'"failed":0,'*) ;;
    *) echo "hashgate: FAIL — $w did not finish correct with 0 failed: ${result:0:120}" >&2; exit 1 ;;
    esac
    [ "$got" = "$want" ] || { echo "hashgate: FAIL — $w output_hash $got, $(basename "$ledger") records $want" >&2; exit 1; }
    allocs=$(printf '%s\n' "$result" | sed -n 's/.*"allocs_per_op":{"value":\([0-9.e+-]*\),.*/\1/p')
    awk -v got="$allocs" -v want="$want_allocs" 'BEGIN { exit (got != "" && got + 0 <= (want + 0) * 1.10) ? 0 : 1 }' || {
        echo "hashgate: FAIL — $w allocs_per_op ${allocs:-missing}, more than 10 % above the $want_allocs $(basename "$ledger") records" >&2
        exit 1
    }
    echo "hashgate: $w $got allocs_per_op $allocs (ledger $want_allocs)"
done
echo "hashgate: OK ($(basename "$ledger"))"
