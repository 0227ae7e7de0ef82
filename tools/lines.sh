#!/usr/bin/env bash
# tools/lines.sh [base] — the line accounting a [simplicity] PR reports.
#
# Prints the non-test .go line total of every package (the number ROADMAP's
# inventory and each PR's "non-test lines A → B" quote; `wc -l` of the
# files, comments and blanks included), and, when a base commit is given,
# the per-file `git diff --numstat` table of non-test .go files outside
# bench/ against the working tree, as CHANGES.md records it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

git ls-files -co --exclude-standard -- '*.go' ':!*_test.go' ':!bench' |
    while read -r f; do
        if [ -f "$f" ]; then printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"; fi
    done |
    awk '{ n[$1] += $2; total += $2 } END { for (p in n) printf "%7d  %s\n", n[p], p; printf "%7d  total\n", total }' |
    sort -k2

[ $# -ge 1 ] || exit 0
echo
echo "git diff --numstat $1 (non-test .go, bench/ excluded):"
git diff --numstat "$1" -- '*.go' ':!*_test.go' ':!bench' |
    awk '{ printf "  %-44s +%d/-%d\n", $3, $1, $2; a += $1; d += $2 }
         END { printf "  %-44s +%d/-%d, net %+d\n", "total", a, d, a - d }'
