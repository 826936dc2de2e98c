#!/usr/bin/env sh
# bench_sim.sh — run the engine sweep benchmarks (sparse fast path vs the
# dense sim/ref baseline, the harness parallel variant, the re-platformed
# reactive-protocol sweep and single run, the two-level AUED coder under
# them, the multi-broadcast traffic tier, the
# protocol-layer BVDeliver hot path, the large-scale tier: the
# 160×160 torus sweep, the 100k-node RGG single-run, the
# million-node RGG single-run, and the construction of both graphs
# (BenchmarkRGGBuild, the topo layer those runs keep outside their
# timers) — plus the job-service tier, the
# end-to-end submit/run/aggregate/wait path of internal/jobs behind
# cmd/bftsimd and the sharded lease-protocol variant of the same grid)
# and emit BENCH_sim.json, the
# machine-readable record the CI bench job uploads and the repo checks in
# as the perf trajectory across PRs.
#
# When the checked-in BENCH_sim.json exists, per-benchmark *_vs_prev
# speedups are recorded against it and the run FAILS (the CI gates) if:
#   - BenchmarkSweep45Scenario, BenchmarkRGG100kRun or
#     BenchmarkMultiBroadcast regressed by more than 10%, or
#     BenchmarkRGG1MRun, BenchmarkRGGBuild/n=100k or
#     BenchmarkJobThroughput by more than 15%,
#     or BenchmarkBVDeliver by more than 25% (generous: the op is
#     microseconds, so scheduler noise dominates — the 0.65 vs_prev
#     scare in PR 8's snapshot was exactly such noise), or the
#     executors=1 leg of BenchmarkShardedGridThroughput by more than
#     15% (disk-sensitive like JobThroughput), in ns/op, or
#   - BenchmarkBVDeliver, BenchmarkRGG100kRun, BenchmarkRGG1MRun,
#     BenchmarkMultiBroadcast or BenchmarkJobThroughput regressed by
#     more than 10% in allocs/op.
# A gated benchmark that the checked-in snapshot does not hold fails the
# run too (after the output is written): a gate without a baseline
# guards nothing. Regenerating the snapshot is the fix — the first
# regeneration after adding a gated benchmark therefore exits non-zero
# with the new snapshot in place, and the next run gates against it.
# Allocation gates are machine-independent; they guard the protocol
# layer's zero-alloc delivery contract, the large-scale fast path's
# steady-state reuse (PR 6 took RGG100kRun from ~200k allocs/op to
# ~130), the multi-broadcast machine's flat arenas, and the job
# service's per-point spec expansion (PR 9 cut it ~17% by killing the
# option-closure churn).
#
# Usage: scripts/bench_sim.sh [benchtime] [output]
#   benchtime  go test -benchtime value (default 10x: the sweep is
#              deterministic, so fixed iteration counts are comparable)
#   output     output path (default BENCH_sim.json)
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${1:-10x}"
OUT="${2:-BENCH_sim.json}"

PREVFLAGS=""
if [ -f BENCH_sim.json ]; then
  cp BENCH_sim.json /tmp/bench_prev.json
  PREVFLAGS="-prev /tmp/bench_prev.json -max-regress BenchmarkSweep45Scenario:1.10,BenchmarkBVDeliver:1.25,BenchmarkBVDeliver:allocs:1.10,BenchmarkRGG100kRun:1.10,BenchmarkRGG100kRun:allocs:1.10,BenchmarkRGG1MRun:1.15,BenchmarkRGG1MRun:allocs:1.10,BenchmarkRGGBuild/n=100k:1.15,BenchmarkMultiBroadcast:1.10,BenchmarkMultiBroadcast:allocs:1.10,BenchmarkJobThroughput:1.15,BenchmarkJobThroughput:allocs:1.10,BenchmarkShardedGridThroughput/executors=1:1.15,BenchmarkShardedGridThroughput/executors=1:allocs:1.10"
fi

go build -o /tmp/benchjson ./cmd/benchjson

# No pipeline: POSIX sh has no pipefail, and a b.Fatal in a later
# benchmark must fail the script even when the earlier result lines
# already parsed cleanly.
RAW=/tmp/bench_raw.txt
run_suite() {
  go test -run '^$' -timeout 1800s \
    -bench 'Benchmark(Sweep45(Sequential|Parallel|DenseRef|Runner|Scenario)|ReactiveSweep|ReactiveBroadcast|Sweep160Scenario|RGG100kRun|MultiBroadcast|RGG25kMulti)$' \
    -benchmem -benchtime "$BENCHTIME" . > "$RAW"
  # The coder under the reactive rows: an encode is microseconds and a
  # verify tens of nanoseconds, so a fixed 20000 iterations instead of
  # the caller's benchtime, which would time a handful of clock ticks.
  go test -run '^$' -timeout 600s \
    -bench 'BenchmarkAUED(Encode|Verify)$' \
    -benchmem -benchtime 20000x . >> "$RAW"
  go test -run '^$' -timeout 1800s \
    -bench 'BenchmarkRGGBuild$/^n=100k$' \
    -benchmem -benchtime "$BENCHTIME" . >> "$RAW"
  # The million-node run and the million-node build are seconds per op:
  # fixed at -benchtime 1x so the large-scale tier stays a few seconds
  # instead of scaling with the caller's benchtime. Both are
  # deterministic, so one iteration is a comparable sample. (Two
  # invocations: a -bench pattern with a sub-benchmark element skips
  # benchmarks that have no sub-benchmarks.)
  go test -run '^$' -timeout 1800s \
    -bench 'BenchmarkRGG1MRun$' \
    -benchmem -benchtime 1x . >> "$RAW"
  go test -run '^$' -timeout 1800s \
    -bench 'BenchmarkRGGBuild$/^n=1M$' \
    -benchmem -benchtime 1x . >> "$RAW"
  # The certified-propagation delivery hot path (protocol.Acceptance in
  # distinct mode); its allocs/op line joins the same document so the
  # allocation gate can guard it.
  go test -run '^$' -timeout 600s \
    -bench 'BenchmarkBVDeliver$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/protocol >> "$RAW"
  # The job-service tier: end-to-end submit → checkpointing run →
  # constant-memory aggregation → wait for a 64-point grid, the path
  # every bftsimd job takes — plus the sharded variant of the same grid
  # (shard executors pulling 4-point leases; it asserts that four of
  # them beat one). Gated loosely (15%): the checkpoint fsyncs make both
  # disk-sensitive.
  go test -run '^$' -timeout 600s \
    -bench 'Benchmark(JobThroughput|ShardedGridThroughput)$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/jobs >> "$RAW"
  cat "$RAW" >&2
}

run_suite
# Run-to-run variance on shared machines can exceed the 10% gate (the
# untouched DenseRef baseline has drifted >20% between runs of this
# container); a single retry separates persistent regressions from
# noise while keeping real >10% slowdowns fatal.
if ! /tmp/benchjson $PREVFLAGS < "$RAW" > "$OUT"; then
  echo "bench_sim.sh: regression gate tripped; rerunning once to rule out noise" >&2
  run_suite
  /tmp/benchjson $PREVFLAGS < "$RAW" > "$OUT"
fi
echo "wrote $OUT" >&2
