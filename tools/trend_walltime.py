#!/usr/bin/env python3
"""Folds paired wall-time artifacts from many PRs into one trend table.

The CI `walltime` job gates each PR at a 25% wall-time regression, but a
sequence of PRs each 10-20% slower sails under that per-PR gate. This tool
makes the slow drift visible: it ingests the `walltime-pair-<sha>` artifacts
the job uploads (each holds `base_shard*.json`/`head_shard*.json` and
`base_micro.json`/`head_micro.json`, produced back to back on ONE runner)
and chains the per-PR slowdown factors into a cumulative drift per
benchmark. A side with several runs (`base_shard_1.json`,
`base_shard_2.json`, ...) counts as the median of its runs, the way
compare_bench.py gates it.

Within one artifact the base/head ratio is machine-comparable (same runner,
interleaved). Across artifacts only the RATIOS are comparable — absolute
times come from heterogeneous runners — which is exactly why the trend is a
product of per-PR ratios, never a comparison of raw timings across runs.

Slowdown convention: > 1.0 means head was slower than base.
  * google-benchmark entries: head real_time / base real_time
  * shard_scaling throughputs (updates_per_s, queries_per_s):
    base / head (a throughput drop is a slowdown)

Usage:
  # download the artifacts of the last N runs, oldest first, then:
  python3 tools/trend_walltime.py pairs/walltime-pair-aaa pairs/walltime-pair-bbb \
      [--out-md TREND.md] [--max-cumulative-drift 0.25] [--fail-on-drift]

  # or point at one directory of pair subdirectories (sorted by mtime):
  python3 tools/trend_walltime.py pairs/

Pairs are folded in the order given on the command line (pass oldest
first); a single directory argument containing pair subdirectories folds
them in mtime order. Exit code 1 only with --fail-on-drift when any
benchmark's cumulative slowdown exceeds --max-cumulative-drift.
"""

import argparse
import glob
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_bench  # noqa: E402  (shared JSON flattening)

# (base file stem, head file stem, suite label); a stem matches
# <stem>.json and <stem>_<run>.json.
PAIR_FILES = [
    ("base_shard", "head_shard", "shard_scaling"),
    ("base_micro", "head_micro", "micro_kernels"),
]


def run_files(pair_dir, stem):
    """The run files of one side of a pair, in name order."""
    return sorted(glob.glob(os.path.join(pair_dir, stem + ".json")) +
                  glob.glob(os.path.join(pair_dir, stem + "_*.json")))


def pair_label(path):
    """walltime-pair-<sha> -> short sha; anything else -> basename."""
    name = os.path.basename(os.path.normpath(path))
    if name.startswith("walltime-pair-"):
        return name[len("walltime-pair-"):][:10]
    return name


def slowdowns_for_pair(pair_dir):
    """{(suite, benchmark, field): slowdown} for one artifact directory."""
    out = {}
    for base_name, head_name, suite in PAIR_FILES:
        base_paths = run_files(pair_dir, base_name)
        head_paths = run_files(pair_dir, head_name)
        if not (base_paths and head_paths):
            continue  # older artifacts may predate a suite
        base_format, base = compare_bench.load_runs(base_paths)
        head_format, head = compare_bench.load_runs(head_paths)
        if base_format != head_format:
            raise SystemExit(
                f"error: {pair_dir}: {base_name} and {head_name} disagree on "
                f"format ({base_format} vs {head_format})")
        for name in sorted(set(base) & set(head)):
            if base_format == "google_benchmark":
                base_time = base[name].get("real_time")
                head_time = head[name].get("real_time")
                if base_time and head_time and base_time > 0:
                    out[(suite, name, "real_time")] = head_time / base_time
            else:
                for field in compare_bench.THROUGHPUT_FIELDS:
                    base_tp = base[name].get(field)
                    head_tp = head[name].get(field)
                    if base_tp and head_tp and head_tp > 0:
                        out[(suite, name, field)] = base_tp / head_tp
    if not out:
        raise SystemExit(f"error: no comparable pair files in {pair_dir}")
    return out


def expand_pair_dirs(args_dirs):
    """Explicit dirs keep argv order; one container dir -> mtime order."""
    if len(args_dirs) == 1 and os.path.isdir(args_dirs[0]):
        sole = args_dirs[0]
        has_pair_files = any(run_files(sole, base)
                             for base, _, _ in PAIR_FILES)
        if not has_pair_files:
            subdirs = [os.path.join(sole, d) for d in os.listdir(sole)
                       if os.path.isdir(os.path.join(sole, d))]
            if not subdirs:
                raise SystemExit(f"error: no pair subdirectories in {sole}")
            return sorted(subdirs, key=lambda d: (os.path.getmtime(d), d))
    for d in args_dirs:
        if not os.path.isdir(d):
            raise SystemExit(f"error: no such pair directory {d}")
    return list(args_dirs)


def build_trend(pair_dirs):
    labels = [pair_label(d) for d in pair_dirs]
    per_pair = [slowdowns_for_pair(d) for d in pair_dirs]
    keys = sorted(set().union(*per_pair))
    rows = []
    for key in keys:
        cells = [pair.get(key) for pair in per_pair]
        cumulative = 1.0
        for value in cells:
            if value is not None:
                cumulative *= value
        rows.append((key, cells, cumulative))
    return labels, rows


def render_markdown(labels, rows, max_drift):
    header = ["benchmark", "metric"] + labels + ["cumulative"]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for (suite, name, field), cells, cumulative in rows:
        flag = " ⚠" if cumulative > 1.0 + max_drift else ""
        cell_text = ["·" if v is None else f"{v:.3f}" for v in cells]
        lines.append(
            "| " + " | ".join([f"{suite}/{name}", field] + cell_text +
                              [f"{cumulative:.3f}{flag}"]) + " |")
    lines.append("")
    lines.append(f"Slowdown factors per PR (head/base wall time; > 1 is "
                 f"slower). ⚠ marks cumulative drift beyond "
                 f"{1.0 + max_drift:.2f}x.")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("pairs", nargs="+",
                        help="walltime-pair artifact directories (oldest "
                             "first), or one directory containing them")
    parser.add_argument("--out-md", help="write the trend table here")
    parser.add_argument("--max-cumulative-drift", type=float, default=0.25,
                        help="flag benchmarks whose chained slowdown exceeds "
                             "1 + this value (default 0.25)")
    parser.add_argument("--fail-on-drift", action="store_true",
                        help="exit 1 when any benchmark is flagged")
    args = parser.parse_args()

    pair_dirs = expand_pair_dirs(args.pairs)
    labels, rows = build_trend(pair_dirs)
    table = render_markdown(labels, rows, args.max_cumulative_drift)
    print(table)
    if args.out_md:
        with open(args.out_md, "w") as f:
            f.write(table)
        print(f"wrote {args.out_md}")

    flagged = [key for key, _, cumulative in rows
               if cumulative > 1.0 + args.max_cumulative_drift]
    if flagged:
        print(f"{len(flagged)} benchmark(s) beyond the cumulative drift "
              f"limit:", file=sys.stderr)
        for suite, name, field in flagged:
            print(f"  {suite}/{name}/{field}", file=sys.stderr)
        if args.fail_on_drift:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
