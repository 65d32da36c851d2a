#!/usr/bin/env python3
"""Tests of the benchmark itself: the percentile rule, the metric-name
grammar, the BENCHMARK.json schema, and a tiny-scale smoke run of every
workload (untraced and traced) with all of its correctness checks.

    python3 perfbench/test_perfbench.py

The smoke tests build the benchmark into .bench_build/perfbench first.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100 reversed: order must not matter
        samples.reverse()
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 90), 90)
        self.assertEqual(stats.percentile(samples, 99), 99)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(20, 50), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.supported_percentile(0))
        self.assertIsNone(stats.supported_percentile(19))
        self.assertEqual(stats.supported_percentile(20), 50)
        self.assertEqual(stats.supported_percentile(99), 50)
        self.assertEqual(stats.supported_percentile(100), 90)
        self.assertEqual(stats.supported_percentile(999), 90)
        self.assertEqual(stats.supported_percentile(1000), 99)
        self.assertEqual(stats.supported_percentile(9999), 99)
        self.assertEqual(stats.supported_percentile(10000), 99.9)

    def test_segments_absorb_a_burst(self):
        samples = [1.0] * 5000
        samples[1000:1100] = [50.0] * 100
        self.assertEqual(stats.percentile(samples, 99), 50.0)
        # Five segments of 1000 samples; only one holds the burst.
        self.assertEqual(stats.segmented_percentile(samples, 99), 1.0)
        # Too few samples to cut: the plain percentile.
        self.assertEqual(stats.segmented_percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.segmented_percentile(list(range(1, 41)), 50),
                         (10 + 30) / 2.0)

    def test_summary_labels_percentile_and_count(self):
        spec = load_spec()
        raw = {
            "series": {"setup_s": [1.0, 2.0, 3.0],
                       "ingest_batch_ms": [float(i) for i in range(1000)],
                       "query_ms": [float(i) for i in range(500)],
                       "recover_s": [0.5]},
            "values": {"ingest_pps": 10.0, "memory_points": 5.0,
                       "peak_rss_mb": 1.0, "quality_ratio": 1.1},
        }
        metrics, rows, warnings = stats.summarize(raw, spec, "window-query",
                                                  False)
        self.assertEqual(metrics["ingest_batch_p99_ms"]["value"], 989.0)
        self.assertEqual(metrics["setup_s"]["value"], 2.0)
        details = {name: detail for name, _, _, detail in rows}
        self.assertEqual(details["ingest_batch_p99_ms"],
                         "p99 of 1000 samples")
        # 500 query samples cannot support p99: the run says so.
        self.assertTrue(any(w.startswith("query_tail_ms") for w in warnings))
        self.assertFalse(any(w.startswith("setup_s") for w in warnings))

    def test_per_layer_tail_follows_the_rule(self):
        spec = load_spec()
        raw = {"series": {"serving.queryall_ms": [float(i) for i in
                                                  range(150)]},
               "values": {"serving.spill_puts": 3.0}}
        metrics, rows, _ = stats.summarize(raw, spec, "fleet-mixed", True)
        self.assertEqual(metrics["serving.queryall_tail_ms"]["value"],
                         stats.percentile(raw["series"]["serving.queryall_ms"],
                                          90))
        self.assertEqual(metrics["serving.spill_puts"]["value"], 3.0)
        # Layers a workload does not exercise read 0 and say so.
        self.assertEqual(metrics["replication.rebases"]["value"], 0)
        self.assertEqual(set(metrics), {m["name"] for m in spec["per_layer"]})


class NameGrammarTest(unittest.TestCase):
    def test_every_name_matches(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(stats.NAME_RE.match(name), name)

    def test_rejects_bad_names(self):
        for bad in ["", "a b", ".lead", "-lead", "x" * 65, "a/b", "café",
                    "p99%"]:
            self.assertFalse(stats.NAME_RE.match(bad), bad)
        for good in ["a", "0x", "core.update_self_s", "fleet-mixed",
                     "x" * 64]:
            self.assertTrue(stats.NAME_RE.match(good), good)

    def test_units(self):
        for unit in ["ms", "s", "1/s", "count", "%", "MiB", "bytes"]:
            self.assertTrue(stats.UNIT_RE.match(unit), unit)
        for unit in ["", "m s", "x" * 17]:
            self.assertFalse(stats.UNIT_RE.match(unit), unit)


class SchemaTest(unittest.TestCase):
    def test_committed_file_is_valid(self):
        self.assertEqual(stats.validate_benchmark(load_spec()), [])

    def test_workloads_metrics_and_bounds(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["window-query", "replicate-recover"])
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(set(e2e), set(stats.END_TO_END_SOURCES))
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(stats.QUERY_TAIL))
        # setup_s carries the largest bound, so work moved into set-up shows.
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        self.assertEqual(e2e["ingest_pps"]["better"], "higher")
        for m in spec["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertIn("trace.overhead_ratio",
                      {m["name"] for m in spec["per_layer"]})

    def test_command_stays_inside_paths(self):
        spec = load_spec()
        for arg in spec["command"][1:]:
            if "/" in arg or os.path.exists(os.path.join(ROOT, arg)):
                self.assertTrue(any(arg == p or arg.startswith(p + "/")
                                    for p in spec["paths"]), arg)

    def test_rejects_broken_documents(self):
        spec = load_spec()

        def broken(mutate):
            doc = json.loads(json.dumps(spec))
            mutate(doc)
            return stats.validate_benchmark(doc)

        self.assertTrue(broken(lambda d: d.pop("paths")))
        self.assertTrue(broken(lambda d: d.update(extra=1)))
        self.assertTrue(broken(lambda d: d["end_to_end"][1].update(
            bound=0.3)))
        self.assertTrue(broken(lambda d: d["end_to_end"][1].update(
            better="faster")))
        self.assertTrue(broken(lambda d: d["per_layer"].append(
            dict(d["per_layer"][0]))))
        self.assertTrue(broken(lambda d: d.update(
            workloads=d["workloads"][:1])))
        self.assertTrue(broken(lambda d: d.update(run_seconds=61)))
        self.assertTrue(broken(lambda d: d.update(
            command=["python3", "/abs/run.py"])))
        self.assertTrue(broken(lambda d: d.update(
            end_to_end=[m for m in d["end_to_end"]
                        if m["name"] != "setup_s"])))
        self.assertTrue(broken(lambda d: d["workloads"][0].update(
            why="two\nlines")))


def run_benchmark(cwd, workload, trace, seconds="0.5"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", seconds,
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    """Every workload at tiny scale, untraced and traced, with its checks."""

    CHECKS = {
        "window-update": {0: ["caps", "quality_bound", "quality_sampled",
                              "checkpoint_round_trip"],
                          1: ["caps", "trace_digest"]},
        "window-query": {0: ["caps", "calls_on_cpu", "quality_bound",
                             "quality_sampled", "checkpoint_round_trip"],
                         1: ["caps", "trace_digest",
                             "thread_count_determinism"]},
        "fleet-mixed": {0: ["caps", "serial_replay", "quality_bound",
                            "checkpoint_round_trip"],
                        1: ["caps", "serial_replay", "trace_digest"]},
        "replicate-recover": {0: ["caps", "calls_on_cpu",
                                  "frozen_replay_equal", "follower_equal",
                                  "recovered_equal", "quality_bound"],
                              1: ["caps", "untraced_follower_equal",
                                  "follower_equal", "trace_digest",
                                  "recovered_equal"]},
    }

    def test_all_workloads(self):
        spec = load_spec()
        for workload, by_trace in self.CHECKS.items():
            for trace, checks in by_trace.items():
                with self.subTest(workload=workload, trace=trace):
                    done = run_benchmark(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0,
                                     done.stdout[-3000:] + done.stderr[-3000:])
                    lines = done.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    section = spec["per_layer"] if trace else \
                        spec["end_to_end"]
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in section})
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float))
                        if not trace:
                            self.assertGreater(metric["value"], 0, name)
                    for check in checks:
                        self.assertTrue(
                            any(line.startswith("# check %s " % check) and
                                " ok " in line for line in lines),
                            "%s: check %s missing or failed" % (workload,
                                                                check))

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_benchmark(bare, "window-update", 0)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
