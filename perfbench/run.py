#!/usr/bin/env python3
"""End-to-end benchmark of the panagree-serve daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the daemon, the snapshot
compiler and the benchmark client from source (CMake, Release, into
$CARGO_TARGET_DIR or .bench_build), compiles the 3000-AS synthetic
fixture snapshot once, then for one workload:

  1. turns the seed into the request stream (before any daemon starts);
  2. three times in turn: starts `panagree-serve --threads 2` on the
     plain snapshot, timing spawn to readiness line; drives a third of
     the S seconds of the workload over loopback from one client process
     (2 connections, at most 3 threads) and scrapes `stats`; stops the
     daemon with SIGTERM and checks its drain line. The closed-loop
     streams continue from one daemon to the next;
  3. checks every answer, replays a golden subset in-process and
     computes the metrics over the three segments pooled (after the
     timed phases).

The gated end-to-end metrics are setup_s (median of the three starts)
and peak_rss_mb (the highest of the three daemons' peaks). The latencies are
in the run record, not gated: on a shared host their run-to-run spread
is wider than any bound the gate allows (NOISE.md).

With --trace 1 the workload runs for S seconds against one daemon, then
again against a daemon with PANAGREE_TRACE on; the requests are
replayed in-process layer by layer, and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The line before it is the run record (host, build, daemon
flags, seed, every metric under its workload-specific name with its
sample count, per-layer self times, check messages).

Workloads (see NOISE.md for why each exists and how steady it is):
  whatif_scan  distinct single-link peering what-ifs, closed loop on 2
               connections, 500 cached sources: what-if p50/p95.
  lookup_read  paths + diversity of cached sources, 1:1, closed loop on
               2 connections, 500 cached sources: paths p50/p95,
               diversity p50/p95.
  rebase_read  rebase commits of a deployment program (closed loop, fixed
               think time) beside open-loop paths/diversity reads at a
               fixed rate, 30 cached sources: rebase p50, read p50/p95
               timed from each read's due time. Each daemon commits the
               program from its first step.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# name -> cached sources. rebase_read caches 30: a rebase refolds every
# cached source, and at 30 a commit takes ~0.22 s on a 4-core host, so
# with rebases covering about a third of the run a 16 s run commits ~24
# times.
WORKLOADS = {"whatif_scan": 500, "lookup_read": 500, "rebase_read": 30}
FIXTURE_ASES = 3000
DAEMON_THREADS = 2
# Daemons per untraced run, each driven for an equal share of the run;
# setup_s is the median of their starts.
SEGMENTS = 3
# Every run after the build must end within this many seconds.
RUN_BUDGET_S = 170


class RunError(Exception):
    pass


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def clean_env(trace_path=None):
    """The environment of every child: no PANAGREE_* override leaks in."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PANAGREE_")}
    if trace_path is not None:
        env["PANAGREE_TRACE"] = str(trace_path)
    return env


def run_checked(cmd, log_path, env=None):
    with open(log_path, "ab") as out:
        result = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=env or clean_env())
    if result.returncode != 0:
        tail = Path(log_path).read_text(errors="replace")[-3000:]
        raise RunError("command failed (%d): %s\n%s"
                       % (result.returncode, " ".join(map(str, cmd)), tail))


def build(root, build_dir):
    log_path = build_dir / "perfbench-build.log"
    if not (build_dir / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"], log_path)
    run_checked(["cmake", "--build", str(build_dir), "-j", "4", "--target",
                 "panagree-serve", "panagree-compile", "perfbench-client"],
                log_path)
    cache = (build_dir / "CMakeCache.txt").read_text()
    build_type = next((line.split("=", 1)[1] for line in cache.splitlines()
                       if line.startswith("CMAKE_BUILD_TYPE:")), "unknown")
    return build_type


class Daemon:
    """One panagree-serve process; stop() sends SIGTERM and waits."""

    def __init__(self, binary, snapshot, sources, stderr_path, trace=None):
        self.flags = ["--snapshot", str(snapshot), "--port", "0",
                      "--threads", str(DAEMON_THREADS), "--sources",
                      str(sources)]
        self.stderr_path = stderr_path
        start = time.perf_counter()
        with open(stderr_path, "wb") as err:
            self.process = subprocess.Popen(
                [str(binary)] + self.flags, stdout=subprocess.PIPE,
                stderr=err, env=clean_env(trace), text=True)
        try:
            self.readiness = self.process.stdout.readline().strip()
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        self.ready_s = time.perf_counter() - start
        if not self.readiness.startswith("listening on 127.0.0.1:"):
            self.stop()
            raise RunError("daemon did not get ready: "
                           + Path(stderr_path).read_text()[-2000:])
        words = self.readiness.split()
        self.port = int(words[2].rsplit(":", 1)[1])
        self.fields = dict(w.split("=", 1) for w in words[3:] if "=" in w)

    def stop(self):
        """SIGTERM, wait, and return the request count of the drain line."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RunError("daemon did not drain within 60 s")
        self.process.stdout.close()
        for line in Path(self.stderr_path).read_text().splitlines():
            if line.startswith("[serve] drained after "):
                return int(line.split()[3])
        return None


def client(build_dir, *args, capture=False):
    cmd = [str(build_dir / "perfbench-client")] + [str(a) for a in args]
    result = subprocess.run(cmd, stdout=subprocess.PIPE if capture else
                            subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=clean_env(), text=True)
    if result.returncode != 0:
        raise RunError("perfbench-client %s failed: %s"
                       % (args[0], result.stderr[-3000:]))
    return result.stdout


def reference_loop_ms(build_dir):
    return float(client(build_dir, "refloop", capture=True).split()[0])


def drive_phase(build_dir, binary, snapshot, sources, args, run_dir, name,
                millis, first_unit=0, trace=None):
    """Starts a daemon, drives the workload for `millis` from stream unit
    `first_unit`, stops it; returns the daemon, an error message list
    (drain check) and the first stream unit not sent."""
    phase_dir = run_dir / name
    phase_dir.mkdir()
    daemon = Daemon(binary, snapshot, sources, phase_dir / "serve.err",
                    trace)
    try:
        client(build_dir, "drive", "--port", daemon.port, "--workload",
               args.workload, "--millis", millis, "--first-unit",
               first_unit, "--stream", run_dir / "stream.txt", "--out",
               phase_dir)
    finally:
        drained = daemon.stop()
    summary = dict(line.split(" ", 1) for line in
                   (phase_dir / "summary.txt").read_text().splitlines())
    sent = int(summary["sent"])
    errors = []
    if drained is None or drained != sent:
        errors.append("%s: drain line counted %s requests, the client sent "
                      "%s" % (name, drained, sent))
    return daemon, errors, int(summary["next_unit"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    needed = [root / "CMakeLists.txt", root / "src" / "panagree",
              root / "tools" / "panagree-serve.cpp",
              root / "perfbench" / "CMakeLists.txt",
              root / "BENCHMARK.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        log("not a panagree source checkout (missing %s)"
            % ", ".join(missing))
        return 2

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    try:
        build_type = build(root, build_dir)
    except RunError as e:
        log(str(e))
        return 1

    def on_alarm(signum, frame):
        raise RunError("run exceeded %d s" % RUN_BUDGET_S)
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_BUDGET_S)

    sources = WORKLOADS[args.workload]
    work_dir = build_dir / "perfbench"
    work_dir.mkdir(exist_ok=True)
    snapshot = work_dir / ("fixture-%d.pansnap" % FIXTURE_ASES)
    binary = build_dir / "panagree" / "panagree-serve"
    run_dir = work_dir / ("run-" + args.workload)
    daemons = []
    phase_s = {}
    clock = [time.perf_counter()]

    def lap(name):
        now = time.perf_counter()
        phase_s[name] = round(now - clock[0], 3)
        clock[0] = now

    try:
        if not snapshot.exists():
            run_checked([str(build_dir / "panagree" / "panagree-compile"),
                         str(snapshot),
                         "--synthetic", str(FIXTURE_ASES)],
                        work_dir / "compile.log")
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        refloop_before = reference_loop_ms(build_dir)
        lap("prepare")
        client(build_dir, "gen", "--snapshot", snapshot, "--sources",
               sources, "--workload", args.workload, "--seed", args.seed,
               "--out", run_dir / "stream.txt")

        lap("gen")
        # The untraced run: SEGMENTS daemons, each driven for its share of
        # the run (a traced run: one daemon for the whole run).
        segments = 1 if args.trace else SEGMENTS
        total_ms = args.seconds * 1000
        setup = []
        errors = []
        segment_dirs = []
        next_unit = 0
        for i in range(segments):
            name = "untraced-%d" % i
            millis = total_ms * (i + 1) // segments - total_ms * i // segments
            daemon, segment_errors, next_unit = drive_phase(
                build_dir, binary, snapshot, sources, args, run_dir, name,
                millis, next_unit)
            daemons.append(daemon)
            setup.append(daemon.ready_s)
            errors += segment_errors
            segment_dirs.append(str(run_dir / name))
        lap("untraced")
        check_args = ["check", "--snapshot", snapshot, "--sources", sources,
                      "--workload", args.workload, "--stream",
                      run_dir / "stream.txt", "--drive",
                      ",".join(segment_dirs)]
        if args.trace:
            trace_file = run_dir / "daemon-trace.json"
            traced, traced_errors, _ = drive_phase(
                build_dir, binary, snapshot, sources, args, run_dir,
                "traced", total_ms, trace=trace_file)
            daemons.append(traced)
            errors += traced_errors
            lap("traced")
            check_args += ["--traced", run_dir / "traced", "--daemon-trace",
                           trace_file]
        check = json.loads(client(build_dir, *check_args,
                                  capture=True).splitlines()[-1])
        lap("check")
        refloop_after = reference_loop_ms(build_dir)
    except (RunError, OSError) as e:
        log(str(e))
        return 1
    finally:
        signal.alarm(0)
        for daemon in daemons:
            if daemon.process.poll() is None:
                daemon.process.kill()
                daemon.process.wait()

    errors = check["errors"] + errors
    measured = dict(check["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setup)
    # BENCHMARK.json declares the reported metrics and their units.
    declared = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {}
    for metric in declared["per_layer" if args.trace else "end_to_end"]:
        value = measured.get(metric["name"])
        if value is None:
            errors.append("no value for " + metric["name"])
            value = 0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "build_type": build_type,
        "daemon": {"flags": daemon.flags, "build": daemon.fields.get("build"),
                   "simd": daemon.fields.get("simd"),
                   "affinity": daemon.fields.get("affinity")},
        "reference_loop_ms": {"before": refloop_before,
                              "after": refloop_after},
        "setup_s_samples": setup, "phase_s": phase_s,
        "requests": check["requests"],
        "golden_compared": check["golden_compared"],
        "metrics": measured, "samples": check["samples"],
        "self_p50_us": check["self_p50_us"], "errors": errors,
    }
    print(json.dumps({"run": record}))
    print(json.dumps({"correct": not errors and check["correct"],
                      "attempted": max(1, check["attempted"]),
                      "failed": check["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
