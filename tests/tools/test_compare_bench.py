#!/usr/bin/env python3
"""Tests for the several-runs-per-side (median) path of
tools/compare_bench.py and its use in tools/trend_walltime.py.

Run directly (python3 tests/tools/test_compare_bench.py) or through ctest
(compare_bench_test).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TESTS_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(TESTS_TOOLS_DIR))
COMPARE = os.path.join(REPO_ROOT, "tools", "compare_bench.py")
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import compare_bench  # noqa: E402
import trend_walltime  # noqa: E402


def shard_json(updates_per_s, updates=1000, queries_per_s=50.0):
    return {"bench": "shard_scaling", "runs": [
        {"shards": 1, "updates": updates, "updates_per_s": updates_per_s,
         "queries_per_s": queries_per_s, "memory_points": 7}]}


def write_runs(root, stem, docs):
    """Writes <stem>_1.json, <stem>_2.json, ... and returns their paths."""
    paths = []
    for i, doc in enumerate(docs, start=1):
        path = os.path.join(root, f"{stem}_{i}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        paths.append(path)
    return paths


def run_compare(args):
    return subprocess.run([sys.executable, COMPARE] + args,
                          capture_output=True, text=True)


class MedianTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(compare_bench.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(compare_bench.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(compare_bench.median([7.0]), 7.0)

    def test_load_runs_takes_the_median_of_every_numeric_field(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_runs(tmp, "base", [
                shard_json(100.0, queries_per_s=9.0),
                shard_json(300.0, queries_per_s=1.0),
                shard_json(110.0, queries_per_s=5.0)])
            fmt, entries = compare_bench.load_runs(paths)
            self.assertEqual(fmt, "shard_scaling")
            self.assertEqual(entries["shards/1"]["updates_per_s"], 110.0)
            self.assertEqual(entries["shards/1"]["queries_per_s"], 5.0)
            self.assertEqual(entries["shards/1"]["updates"], 1000.0)

    def test_one_run_is_loaded_unchanged(self):
        with tempfile.TemporaryDirectory() as tmp:
            (path,) = write_runs(tmp, "base", [shard_json(123.0)])
            self.assertEqual(compare_bench.load_runs([path]),
                             compare_bench.load(path))

    def test_google_benchmark_runs_take_the_median_real_time(self):
        def micro(ns):
            return {"benchmarks": [{"name": "BM_X", "run_type": "iteration",
                                    "real_time": ns, "time_unit": "ns"}]}
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_runs(tmp, "micro", [micro(10.0), micro(90.0),
                                              micro(12.0)])
            fmt, entries = compare_bench.load_runs(paths)
            self.assertEqual(fmt, "google_benchmark")
            self.assertEqual(entries["BM_X"]["real_time"], 12.0)
            self.assertEqual(entries["BM_X"]["time_unit"], "ns")


class GateTest(unittest.TestCase):
    GATE = ["--max-walltime-regression", "0.25", "--walltime-only"]

    def test_one_slow_head_run_does_not_fail_the_gate(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = write_runs(tmp, "base", [shard_json(t) for t in
                                            (100.0, 104.0, 98.0)])
            head = write_runs(tmp, "head", [shard_json(t) for t in
                                            (40.0, 101.0, 97.0)])
            result = run_compare(["--base"] + base + ["--head"] + head +
                                 self.GATE)
            self.assertEqual(result.returncode, 0, result.stdout +
                             result.stderr)
            self.assertIn("comparing medians: 3 baseline run(s) vs 3 new",
                          result.stdout)
            # The single-file form on the slow run alone does fail.
            single = run_compare([base[0], head[0]] + self.GATE)
            self.assertEqual(single.returncode, 1)

    def test_a_median_drop_beyond_the_bound_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = write_runs(tmp, "base", [shard_json(t) for t in
                                            (100.0, 104.0, 98.0)])
            head = write_runs(tmp, "head", [shard_json(t) for t in
                                            (60.0, 70.0, 200.0)])
            result = run_compare(["--base"] + base + ["--head"] + head +
                                 self.GATE)
            self.assertEqual(result.returncode, 1)
            self.assertIn("shards/1/updates_per_s", result.stderr)

    def test_sides_must_come_together(self):
        with tempfile.TemporaryDirectory() as tmp:
            (base,) = write_runs(tmp, "base", [shard_json(100.0)])
            result = run_compare(["--base", base] + self.GATE)
            self.assertEqual(result.returncode, 2)
            result = run_compare([base, "--head", base] + self.GATE)
            self.assertEqual(result.returncode, 2)


class TrendMedianTest(unittest.TestCase):
    def test_trend_folds_the_median_of_numbered_runs(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = os.path.join(tmp, "walltime-pair-abc")
            os.makedirs(pair)
            write_runs(pair, "base_shard", [shard_json(t) for t in
                                            (1000.0, 400.0, 1000.0)])
            write_runs(pair, "head_shard", [shard_json(t) for t in
                                            (800.0, 800.0, 100.0)])
            labels, rows = trend_walltime.build_trend([pair])
            self.assertEqual(labels, ["abc"])
            by_key = {key: cumulative for key, _, cumulative in rows}
            self.assertAlmostEqual(
                by_key[("shard_scaling", "shards/1", "updates_per_s")], 1.25)


if __name__ == "__main__":
    unittest.main()
