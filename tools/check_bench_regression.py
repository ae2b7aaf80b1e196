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

Either directory holds one run (BENCH_*.json directly inside it) or
several (run-*/BENCH_*.json, as tools/bench_suite.sh writes them). Each
row is compared by its median wall time over the runs, so one run's
host drift on one row does not fail the gate.

Baselines are committed from a developer machine, so absolute wall times
are not comparable across hosts. With --calibrate, the per-row ratios
current/baseline are divided by a machine-speed factor: the median ratio
of the rows whose ratio lies within +-threshold of the first-pass median
of all ratios. A uniform machine-speed difference cancels out, a change
that speeds up a few rows does not lower the factor for the rows it did
not touch, and a row fails only when it regressed by more than
--threshold relative to the steady rest of the suite. Without
--calibrate the comparison is raw.

Fingerprints: the named counters of the google-benchmark rows (checksum,
paths, km_fee_sum, utility_sum, cache_bytes, ...; see FINGERPRINTS) are
outputs of the benchmarked code, not timings. Each must read the same in
every run of both directories; a differing value fails the gate. A
fingerprint the baseline row has but the current row lacks fails too.

Exit status: 0 when no benchmark regresses, every fingerprint matches
and every baseline name is covered by every current run; 1 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

TIME_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

# Counters that fingerprint a row's output: exact, host-independent and
# independent of the iteration count. Any other counter is descriptive
# and never compared. cache_bytes is the serving engine's path-cache size
# and response_bytes a serialized paths response's length: layout and
# wire bytes, which move only on purpose.
FINGERPRINTS = ("checksum", "paths", "km_fee_sum", "utility_sum",
                "captured", "top_candidate", "program_steps",
                "reused_evaluations", "cache_bytes", "response_bytes")
FINGERPRINT_PREFIXES = ("recomputed_sources",)


def is_fingerprint(counter):
    return counter in FINGERPRINTS or counter.startswith(
        FINGERPRINT_PREFIXES)


def load_results(path):
    """Returns ({name: wall ms}, {name: {counter: value}}) for one file.

    Only the result rows are compared. The descriptive context beside
    them (bench_json.hpp's "host", google-benchmark's "context" with its
    host_nproc/host_build_type entries) is ignored, so baselines written
    before those fields existed still compare. Fingerprints are read from
    google-benchmark rows only.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    times = {}
    fingerprints = {}
    if "benchmarks" in data:  # google-benchmark reporter
        for entry in data["benchmarks"]:
            # Skip aggregate rows (mean/median/stddev of repetitions).
            if entry.get("run_type", "iteration") != "iteration":
                continue
            scale = TIME_UNIT_TO_MS.get(entry.get("time_unit", "ns"))
            if scale is None:
                raise ValueError(
                    f"{path}: unknown time_unit in {entry['name']}")
            times[entry["name"]] = float(entry["real_time"]) * scale
            fingerprints[entry["name"]] = {
                key: value for key, value in entry.items()
                if is_fingerprint(key)}
    elif "results" in data:  # bench_json.hpp writer
        for entry in data["results"]:
            times[entry["name"]] = float(entry["wall_ms"])
    else:
        raise ValueError(f"{path}: neither google-benchmark nor "
                         "bench_json.hpp schema")
    return times, fingerprints


def collect(directory):
    """One run: ({"file stem/name": wall ms}, {"stem/name": counters})."""
    times = {}
    fingerprints = {}
    for path in sorted(pathlib.Path(directory).glob("BENCH_*.json")):
        file_times, file_fingerprints = load_results(path)
        for name, wall_ms in file_times.items():
            times[f"{path.stem}/{name}"] = wall_ms
        for name, counters in file_fingerprints.items():
            fingerprints[f"{path.stem}/{name}"] = counters
    return times, fingerprints


def collect_runs(directory):
    """Every run under `directory`: its run-* subdirectories in name
    order, or the directory itself when it has none."""
    root = pathlib.Path(directory)
    runs = sorted(path for path in root.glob("run-*") if path.is_dir())
    return [collect(path) for path in (runs or [root])]


def median_times(runs):
    """{name: median wall ms} over the runs that have the row."""
    samples = {}
    for times, _ in runs:
        for name, wall_ms in times.items():
            samples.setdefault(name, []).append(wall_ms)
    return {name: statistics.median(values)
            for name, values in samples.items()}


def fingerprint_errors(baseline_runs, current_runs):
    """Messages for every fingerprint that differs between runs or from
    the baseline, or that the baseline has and a current run lacks."""
    errors = []
    sides = (("baseline", baseline_runs), ("current", current_runs))
    values = {}  # (side, row, counter) -> [value per run that has the row]
    for side, runs in sides:
        for _, fingerprints in runs:
            for row, counters in fingerprints.items():
                for counter, value in counters.items():
                    values.setdefault((side, row, counter), []).append(value)
    for (side, row, counter), seen in sorted(values.items()):
        if len(set(seen)) > 1:
            errors.append(f"{row}: {counter} differs between the {side} "
                          f"runs: {', '.join(repr(v) for v in seen)}")
    for (side, row, counter), seen in sorted(values.items()):
        if side != "baseline":
            continue
        for index, (times, fingerprints) in enumerate(current_runs):
            if row not in times:
                continue  # reported as missing coverage
            value = fingerprints.get(row, {}).get(counter)
            if value is None:
                errors.append(f"{row}: {counter} missing from current run "
                              f"{index + 1} (baseline {seen[0]!r})")
            elif value != seen[0]:
                errors.append(f"{row}: {counter} = {value!r} in current run "
                              f"{index + 1}, baseline {seen[0]!r}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory with committed BENCH_*.json (or "
                             "run-*/BENCH_*.json)")
    parser.add_argument("--current", required=True,
                        help="directory with freshly emitted BENCH_*.json "
                             "(or run-*/BENCH_*.json)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum tolerated relative wall-time "
                             "regression (default 0.30 = 30%%)")
    parser.add_argument("--calibrate", action="store_true",
                        help="normalize by the median current/baseline "
                             "ratio of the steady rows to cancel "
                             "machine-speed differences")
    parser.add_argument("--min-ms", type=float, default=0.01,
                        help="ignore benchmarks whose baseline is below "
                             "this wall time (noise floor, default 0.01)")
    args = parser.parse_args()

    baseline_runs = collect_runs(args.baseline)
    current_runs = collect_runs(args.current)
    baseline = median_times(baseline_runs)
    current = median_times(current_runs)
    if not baseline:
        print(f"error: no BENCH_*.json baselines under {args.baseline}",
              file=sys.stderr)
        return 1
    print(f"comparing per-row medians: {len(baseline_runs)} baseline "
          f"run(s), {len(current_runs)} current run(s)")

    missing = sorted(name for name in baseline
                     if any(name not in times for times, _ in current_runs))
    new = sorted(name for name in current if name not in baseline)
    common = sorted(name for name in baseline
                    if name in current and name not in missing and
                    baseline[name] >= args.min_ms)
    skipped = sorted(name for name in baseline
                     if name in current and name not in missing and
                     baseline[name] < args.min_ms)

    factor = 1.0
    if args.calibrate and common:
        ratios = [current[name] / baseline[name] for name in common]
        first = statistics.median(ratios)
        steady = [ratio for ratio in ratios
                  if abs(ratio - first) <= args.threshold * first]
        factor = statistics.median(steady) if steady else first
        print(f"calibration: median current/baseline ratio = {factor:.3f} "
              f"over {len(steady)} of {len(ratios)} rows within "
              f"+-{args.threshold:.0%} of the first-pass median "
              f"{first:.3f} (machine-speed normalization)")

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
    for name in missing:
        print(f"error: baseline {name} missing from a current run "
              "(suite coverage shrank)", file=sys.stderr)
    mismatches = fingerprint_errors(baseline_runs, current_runs)
    for message in mismatches:
        print(f"error: fingerprint {message}", file=sys.stderr)
    if failures:
        print(f"error: {len(failures)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}: {', '.join(failures)}",
              file=sys.stderr)
    return 1 if failures or missing or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
