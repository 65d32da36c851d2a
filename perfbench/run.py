#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Builds the library and the benchmark
binary from the checkout's sources into .bench_build/perfbench (Release;
a no-op when current), runs the workload, checks every answer, and prints
one line per metric followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured over
--seconds of closed-loop operation. Every timing is in reference-core time
(see SpeedGauge in src/common.h and README.md). --trace 1 reports the
per-layer metrics from a fixed-work run made twice, untraced and traced.
The exit code is 0 when every check passed, 1 on a failed check or a build
that is not Release, and 2 when the benchmark cannot build or run at all.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
TMP_DIR = ".bench_tmp"
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path,
    or None when the build fails."""
    build_dir = os.path.join(ROOT, BUILD_DIR)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], cwd=ROOT,
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_workload(binary, args):
    """Runs the binary and returns its raw result, or None."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp_dir", TMP_DIR]
    if args.tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return None
    if done.returncode != 0:
        log("%s exited with code %d" % (args.workload, done.returncode))
        return None
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small windows and short runs (smoke test)")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        log("cannot read %s: %s" % (spec_path, error))
        return 2
    errors = stats.validate_benchmark(spec)
    if errors:
        log("invalid BENCHMARK.json: " + "; ".join(errors))
        return 2
    if args.workload not in stats.QUERY_TAIL:
        log("unknown workload %s" % args.workload)
        return 2

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    before = cpu_ticks()
    raw = run_workload(binary, args)
    after = cpu_ticks()
    if raw is None:
        return 2
    info = raw["info"]
    if info.get("build_type") != "Release" or info.get("ndebug") != 1:
        log("refusing to record a result from a %s build" %
            info.get("build_type"))
        return 1

    metrics, rows, warnings = stats.summarize(raw, spec, args.workload,
                                              args.trace == 1)
    print("# %s seed=%d trace=%d generator=%s" %
          (args.workload, args.seed, args.trace, info.get("generator")))
    print("# host: nproc=%d simd=%s compiler=%s build=%s tmp_fs=%s" %
          (info.get("nproc"), info.get("simd_kernel"), info.get("compiler"),
           info.get("build_type"), info.get("tmp_fs")))
    if "probe_ns" in info:
        # How fast the host ran the gauge's kernel: timings are scaled by
        # kReferenceProbeNs over this (src/common.h).
        print("# gauge: median probe %.0f ns" % info["probe_ns"])
    if before and after and after[1] > before[1]:
        # CPU time a hypervisor took from this machine while the run
        # measured: a run with a large share is disturbed from outside.
        print("# steal: %.2f%% of CPU time during the run" %
              (100.0 * (after[0] - before[0]) / (after[1] - before[1])))
    for name, value, unit, detail in rows:
        print("%-40s %16.6g %-6s %s" % (name, value, unit, detail))
    attempted, failed = raw["attempted"], raw["failed"]
    print("%-40s %16.6g %-6s %d of %d operations" %
          ("error_rate", failed / max(1, attempted), "ratio", failed,
           attempted))
    if "kmedian_cap_violations" in info:
        print("# k-median answers over a color cap (not promised by that "
              "objective): %d" % info["kmedian_cap_violations"])
    for check in raw["checks"]:
        print("# check %-28s %s  %s" % (check["name"],
                                        "ok" if check["ok"] else "FAILED",
                                        check["detail"]))
    for warning in warnings:
        print("# warning: " + warning)
    correct = all(c["ok"] for c in raw["checks"]) and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
