#!/usr/bin/env python3
"""Tests of tools/check_bench_regression.py over data/bench_gate.json.

    python3 tests/bench_gate_test.py [BenchGate.test_<case>]

Each case writes the fixture's baseline run and its three current runs
as google-benchmark JSON (BENCH_perf_micro.json, in run-1..run-3 like
tools/bench_suite.sh) into a temporary directory, runs the checker with
--calibrate and checks its exit status and verdicts.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
CHECKER = HERE.parent / "tools" / "check_bench_regression.py"
FIXTURES = json.loads((HERE / "data" / "bench_gate.json").read_text())


def fields(row):
    """A fixture row ({name: ms} or {name: {ms, counters...}}) as a dict."""
    return dict(row) if isinstance(row, dict) else {"ms": row}


def write_run(directory, rows):
    """Writes one run's rows."""
    directory.mkdir(parents=True)
    benchmarks = []
    for name, row in rows.items():
        entry = fields(row)
        benchmarks.append({"name": name, "run_type": "iteration",
                           "real_time": entry.pop("ms"), "time_unit": "ms",
                           **entry})
    (directory / "BENCH_perf_micro.json").write_text(
        json.dumps({"benchmarks": benchmarks}))


def verdicts(stdout):
    """{row: verdict} from the checker's table."""
    out = {}
    for line in stdout.splitlines():
        words = line.split()
        if len(words) >= 5 and words[0].startswith("BENCH_perf_micro/"):
            out[words[0].split("/", 1)[1]] = " ".join(words[4:])
    return out


class BenchGate(unittest.TestCase):
    def check(self, case):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            write_run(root / "baseline", FIXTURES["baseline"])
            for index, rows in enumerate(FIXTURES["cases"][case]):
                write_run(root / "current" / f"run-{index + 1}", rows)
            result = subprocess.run(
                [sys.executable, str(CHECKER), "--baseline",
                 str(root / "baseline"), "--current", str(root / "current"),
                 "--threshold", "0.30", "--calibrate"],
                capture_output=True, text=True, check=False)
        return result.returncode, verdicts(result.stdout), result.stderr

    def test_fast_rows_do_not_flag_an_untouched_row(self):
        # Five rows 2x faster pull the median ratio of all rows down to
        # 1.175, where BM_Untouched (1.55x) would read 1.32 and fail; the
        # rows within +-30% of that first pass put the factor at 1.225.
        runs = FIXTURES["cases"]["fast_rows"]
        first_pass = statistics.median(
            statistics.median(fields(run[name])["ms"] for run in runs)
            for name in runs[0])
        self.assertGreater(1.55 / first_pass, 1.30)
        status, rows, stderr = self.check("fast_rows")
        self.assertEqual(status, 0, stderr)
        self.assertEqual(rows["BM_Untouched"], "ok")
        # One run's 3.0 ms spike is outvoted by the other two.
        self.assertEqual(rows["BM_Steady1"], "ok")
        self.assertTrue(rows["BM_Fast1"].startswith("improved"))

    def test_one_row_regressed_by_40pct_fails(self):
        status, rows, stderr = self.check("regression")
        self.assertEqual(status, 1)
        flagged = sorted(name for name, verdict in rows.items()
                         if verdict.startswith("REGRESSION"))
        self.assertEqual(flagged, ["BM_Steady4"])
        self.assertIn("BM_Steady4", stderr)

    def test_fingerprint_mismatch_fails(self):
        status, rows, stderr = self.check("fingerprint")
        self.assertEqual(status, 1)
        self.assertTrue(all(verdict == "ok" for verdict in rows.values()))
        self.assertIn("checksum differs between the current runs", stderr)
        self.assertIn("utility_sum = 1.25 in current run 1, baseline 1.5",
                      stderr)
        # simd names the host's kernel, not an output: never compared.
        self.assertNotIn("simd", stderr)

    def test_moved_cache_bytes_fails(self):
        # Every row steady, but the path cache grew back to 4 bytes a
        # path: the layout fingerprint alone fails the gate.
        status, rows, stderr = self.check("cache_bytes")
        self.assertEqual(status, 1)
        self.assertTrue(all(verdict == "ok" for verdict in rows.values()))
        self.assertIn("cache_bytes = 14643844 in current run 1, "
                      "baseline 3866313", stderr)


if __name__ == "__main__":
    unittest.main()
