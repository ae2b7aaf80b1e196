#!/usr/bin/env python3
"""Compare emitted BENCH_*.json results against committed baselines.

Usage:
  tools/check_bench_regression.py --baseline bench/baselines \
      --current bench-out [--threshold 0.30] [--calibrate] [--min-ms 0.01]

Understands both result schemas used in this repo:
  * google-benchmark JSON: {"benchmarks": [{"name", "real_time",
    "time_unit", ...}]} (bench_perf_micro)
  * the flat bench_json.hpp schema: {"results": [{"name", "wall_ms",
    ...}]} (plain-main benches)

Baselines are committed from a developer machine, so absolute wall times
are not comparable across hosts. With --calibrate, the per-benchmark
ratios current/baseline are first normalized by their median across the
whole suite - a uniform machine-speed difference cancels out, and a
benchmark fails only when it regressed by more than --threshold relative
to the rest of the suite. Without --calibrate the comparison is raw.

Exit status: 0 when no benchmark regresses and every baseline name is
covered by the current run; 1 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

TIME_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def load_results(path):
    """Returns {benchmark name: wall ms} for either schema.

    Only the result rows are compared. The descriptive context beside
    them (bench_json.hpp's "host", google-benchmark's "context" with its
    host_nproc/host_build_type entries) is ignored, so baselines written
    before those fields existed still compare.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    results = {}
    if "benchmarks" in data:  # google-benchmark reporter
        for entry in data["benchmarks"]:
            # Skip aggregate rows (mean/median/stddev of repetitions).
            if entry.get("run_type", "iteration") != "iteration":
                continue
            scale = TIME_UNIT_TO_MS.get(entry.get("time_unit", "ns"))
            if scale is None:
                raise ValueError(
                    f"{path}: unknown time_unit in {entry['name']}")
            results[entry["name"]] = float(entry["real_time"]) * scale
    elif "results" in data:  # bench_json.hpp writer
        for entry in data["results"]:
            results[entry["name"]] = float(entry["wall_ms"])
    else:
        raise ValueError(f"{path}: neither google-benchmark nor "
                         "bench_json.hpp schema")
    return results


def collect(directory):
    """Returns {"file stem/benchmark name": wall ms} over BENCH_*.json."""
    collected = {}
    for path in sorted(pathlib.Path(directory).glob("BENCH_*.json")):
        for name, wall_ms in load_results(path).items():
            collected[f"{path.stem}/{name}"] = wall_ms
    return collected


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory with committed BENCH_*.json")
    parser.add_argument("--current", required=True,
                        help="directory with freshly emitted BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum tolerated relative wall-time "
                             "regression (default 0.30 = 30%%)")
    parser.add_argument("--calibrate", action="store_true",
                        help="normalize by the median current/baseline "
                             "ratio to cancel machine-speed differences")
    parser.add_argument("--min-ms", type=float, default=0.01,
                        help="ignore benchmarks whose baseline is below "
                             "this wall time (noise floor, default 0.01)")
    args = parser.parse_args()

    baseline = collect(args.baseline)
    current = collect(args.current)
    if not baseline:
        print(f"error: no BENCH_*.json baselines under {args.baseline}",
              file=sys.stderr)
        return 1

    missing = sorted(name for name in baseline if name not in current)
    new = sorted(name for name in current if name not in baseline)
    common = sorted(name for name in baseline
                    if name in current and baseline[name] >= args.min_ms)
    skipped = sorted(name for name in baseline
                     if name in current and baseline[name] < args.min_ms)

    factor = 1.0
    if args.calibrate and common:
        factor = statistics.median(current[name] / baseline[name]
                                   for name in common)
        print(f"calibration: median current/baseline ratio = {factor:.3f} "
              f"(machine-speed normalization)")

    failures = []
    width = max((len(name) for name in common), default=20)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  "
          f"{'ratio':>7}  verdict")
    for name in common:
        base_ms = baseline[name] * factor
        cur_ms = current[name]
        ratio = cur_ms / base_ms
        verdict = "ok"
        if ratio > 1.0 + args.threshold:
            verdict = f"REGRESSION (> +{args.threshold:.0%})"
            failures.append(name)
        elif ratio < 1.0 - args.threshold:
            verdict = "improved (consider refreshing the baseline)"
        print(f"{name:<{width}}  {base_ms:>10.3f}  {cur_ms:>10.3f}  "
              f"{ratio:>7.2f}  {verdict}")

    for name in skipped:
        print(f"note: {name} below the {args.min_ms} ms noise floor, "
              "not compared")
    for name in new:
        print(f"note: {name} has no committed baseline - run "
              "tools/bench_suite.sh and commit it under bench/baselines/")
    if missing:
        for name in missing:
            print(f"error: baseline {name} missing from the current run "
                  "(suite coverage shrank)", file=sys.stderr)
    if failures:
        print(f"error: {len(failures)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}: {', '.join(failures)}",
              file=sys.stderr)
    return 1 if failures or missing else 0


if __name__ == "__main__":
    sys.exit(main())
