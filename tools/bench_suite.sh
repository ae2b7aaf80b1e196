#!/usr/bin/env bash
# Pinned bench invocation shared by CI's bench-regression job and by
# developers refreshing the committed baselines under bench/baselines/:
#
#   ./tools/bench_suite.sh [build-dir] [out-dir]
#
# The suite runs RUNS times; run k's BENCH_*.json files land in
# out-dir/run-k, and tools/check_bench_regression.py compares each row's
# median over the runs against the baselines (one suite run is one sample
# per row, and on a shared host single samples drift past the gate). It
# also fails when a fingerprint counter (checksum, utility_sum, ...) named
# below differs from its baseline or between the runs.
# Sizes are pinned small: the suite tracks the *relative* perf trajectory
# of the repo, not production scale (perf_micro carries its own fixed
# 3000-AS fixture).
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-bench-out}"
RUNS=3
mkdir -p "$OUT"
export PANAGREE_ASES=800
export PANAGREE_SOURCES=60
export PANAGREE_THREADS=2
export PANAGREE_SCENARIOS=24

# Compile the suite topology once; the plain-main benches then mmap the
# snapshot (PANAGREE_SNAPSHOT) instead of re-running the generator + embed
# per process. The snapshot freezes the same seed/size the generator would
# use, so results are unchanged - the benches' own BENCH json records the
# load time and peak RSS per run.
"$BUILD/panagree-compile" "$OUT/suite.pansnap"
export PANAGREE_SNAPSHOT="$OUT/suite.pansnap"

for run in $(seq 1 "$RUNS"); do
  export PANAGREE_BENCH_JSON_DIR="$OUT/run-$run"
  mkdir -p "$PANAGREE_BENCH_JSON_DIR"
  "$BUILD/bench_ext_networkwide_adoption"
  "$BUILD/bench_tab_agreement_optimization"
  # perf_micro: the CSR / sweep / optimizer trajectory benches. The
  # heavyweight *_FullRecompute and *_Exhaustive ablation baselines are
  # excluded on purpose - they exist to measure one-off speedup factors,
  # not to be tracked per commit. MapSources/4 gates the parallel driver's
  # claim overhead (2^18 heavy-tailed items through the guided cursor; its
  # checksum must not move). Length3Enumeration_Csr's `paths` counter
  # pins the CSR walk's output on a fixed source list. Rows that take a
  # thread count are timed in wall-clock time (UseRealTime), so their
  # names end in /real_time. The Obs pair gates the
  # per-record overhead of the metrics layer itself (counter = one sharded
  # relaxed add, histogram = two) so accidental fattening of the record path
  # is caught like any other regression - including the slow-query ring's
  # worst-case eviction scan (Obs_SlowlogRecord) and the whole per-request
  # stage-clock + observation cost on the cache-served fast path
  # (Serve_StageClock).
  # QueryEngine_WhatIfBatched/4 gates the what-if dirty-source fan-out
  # over 4 engine threads (its utility_sum must keep matching the 1-thread
  # row, the byte-identity fingerprint). Metrics_Contribution gates the serial
  # contribution kernel alone - the fold behind every prime, rebase and
  # what-if; its `paths` and `km_fee_sum` counters are a bit-identity
  # fingerprint that must not move. Wire_PathsSerialize gates the paths
  # response writer on a median-size and the largest cached source (its
  # `response_bytes` must not move), and QueryEngine_CachedSource's
  # `cache_bytes` pins the cached path sets' layout.
  # Default --benchmark_min_time stays: the rotating-source micro benches
  # need enough iterations to average the heavy-tailed per-source costs,
  # or run-to-run noise defeats the 30% regression gate.
  "$BUILD/bench_perf_micro" \
    --benchmark_filter='BM_(RoleLookup|Length3Enumeration|CompileTopology|ScenarioSweep_Incremental|Optimizer_Greedy|SnapshotLoad_Mmap|QueryEngine_CachedSource|MapSources|Obs|Serve_StageClock|QueryEngine_WhatIfBatched/4|Convergence|Metrics_Contribution|Wire_PathsSerialize)'
done

echo "bench suite results in $OUT:"
ls -l "$OUT"/run-*
