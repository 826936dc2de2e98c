#!/usr/bin/env sh
# bench_compare.sh — run the repository benchmark (bench/, BENCHMARK.json)
# on a base commit and on this checkout, then let bench's own -compare
# judge the two sets. Its exit code (non-zero on regressed, changed or a
# failed op) is the only gate: no threshold lives here. CI calls this
# with the merge base; a change that claims a gain needs ten runs a side,
# taken twice with the sides in swapped order (bench/README.md).
#
# Usage: scripts/bench_compare.sh [base-commit] [runs]
#        (default: the merge base with origin/main, 3 runs per workload)
# Leaves base.json and head.json under bench/out/.
set -eu
cd "$(dirname "$0")/.."
BASE="${1:-$(git merge-base HEAD origin/main)}"
RUNS="${2:-3}"
OUT="$PWD/bench/out"
TREE="$(mktemp -d)"
trap 'git worktree remove --force "$TREE"' EXIT
mkdir -p "$OUT"
git worktree add --detach "$TREE" "$BASE"
# A set exits non-zero when one of its ops failed; -compare reports that
# as well, and it alone decides.
go run -C "$TREE/bench" . -runs "$RUNS" -out "$OUT/base.json" || true
go run -C bench . -runs "$RUNS" -out "$OUT/head.json" || true
go run -C bench . -compare "$OUT/base.json" "$OUT/head.json"
