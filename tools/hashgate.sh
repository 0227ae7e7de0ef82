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
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ledger=$(ls "$root"/BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -n 1)
[ -n "$ledger" ] || { echo "hashgate: no BENCH_<pr>.json at $root" >&2; exit 2; }

for w in collect_tiered fleet_stream query_mix develop_loop fastloop_replay; do
    # A ledger cell is three lines: the key line, the info line, the result line.
    want=$(grep -A1 "^{\"side\":\"change\",\"workload\":\"$w\",\"seed\":1,\$" "$ledger" |
        sed -n 's/.*"output_hash":"\([0-9a-f]*\)".*/\1/p')
    [ -n "$want" ] || { echo "hashgate: FAIL — $(basename "$ledger") has no change-side $w seed 1 cell" >&2; exit 1; }
    lines=$(cd "$root" && bash bench/run.sh --workload "$w" --seed 1 --seconds 1)
    got=$(printf '%s\n' "$lines" | sed -n '1s/.*"output_hash":"\([0-9a-f]*\)".*/\1/p')
    result=$(printf '%s\n' "$lines" | sed -n 2p)
    case "$result" in
    '{"correct":true,'*'"failed":0,'*) ;;
    *) echo "hashgate: FAIL — $w did not finish correct with 0 failed: ${result:0:120}" >&2; exit 1 ;;
    esac
    [ "$got" = "$want" ] || { echo "hashgate: FAIL — $w output_hash $got, $(basename "$ledger") records $want" >&2; exit 1; }
    echo "hashgate: $w $got"
done
echo "hashgate: OK ($(basename "$ledger"))"
