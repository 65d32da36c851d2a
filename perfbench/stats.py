"""Metric arithmetic of the benchmark, kept apart from the runner so the
benchmark's own tests can check it directly.

A timing is reported as its median plus the highest percentile that has at
least ten samples beyond it, with the sample count. Percentiles use the
nearest-rank definition: the p-th percentile of n sorted samples is the
sample at rank ceil(p * n / 100), so n - ceil(p * n / 100) samples lie
beyond it.

A run's series is cut into up to MAX_SEGMENTS consecutive segments, each
still holding ten samples beyond the percentile, and the reported value is
the median of the segments' percentiles: a burst of interference from
outside the process that spoils one segment then moves the figure little.
"""

import math
import re

# Letters, digits, '_', '.', '-'; starting with a letter or digit; at most 64.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
PERCENTILES = (50, 90, 99, 99.9)
MIN_BEYOND = 10
MAX_SEGMENTS = 24

# Every workload the benchmark can run, with the tail percentile of its
# query latency: the highest one whose run holds at least ten samples
# beyond it. window-update makes one query per 5000 arrivals, about 40 in a
# run, which supports only the median. window-update is not part of
# BENCHMARK.json (see README.md) but stays runnable by hand.
QUERY_TAIL = {
    "window-update": 50,
    "window-query": 99,
    "fleet-mixed": 99,
    "replicate-recover": 99,
}

# Where each metric comes from in the raw result: ("series", name, p) takes
# percentile p of a sample series ("tail" = the highest percentile the
# sample count supports), ("value", name) a scalar.
END_TO_END_SOURCES = {
    "setup_s": ("series", "setup_s", 50),
    "ingest_pps": ("value", "ingest_pps"),
    "ingest_batch_p50_ms": ("series", "ingest_batch_ms", 50),
    "ingest_batch_p99_ms": ("series", "ingest_batch_ms", 99),
    "query_p50_ms": ("series", "query_ms", 50),
    "query_tail_ms": ("series", "query_ms", "query_tail"),
    "recover_s": ("series", "recover_s", 50),
    "memory_points": ("value", "memory_points"),
    "peak_rss_mb": ("value", "peak_rss_mb"),
    "quality_ratio": ("value", "quality_ratio"),
}

PER_LAYER_SERIES = {
    "serving.queryall_p50_ms": ("series", "serving.queryall_ms", 50),
    "serving.queryall_tail_ms": ("series", "serving.queryall_ms", "tail"),
    "replication.capture_p50_ms": ("series", "replication.capture_ms", 50),
}


def samples_beyond(n, p):
    """Samples above the nearest-rank p-th percentile of n samples."""
    return n - math.ceil(p * n / 100.0)


def supported_percentile(n):
    """The highest of PERCENTILES with at least MIN_BEYOND samples beyond
    it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile(samples, p):
    """Nearest-rank p-th percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[rank - 1]


def segmented_percentile(samples, p):
    """Median over consecutive segments of their p-th percentiles; as many
    segments (at most MAX_SEGMENTS) as keep MIN_BEYOND samples beyond p in
    each. Samples are in the order they were taken."""
    n = len(samples)
    segments = 1
    while (segments < MAX_SEGMENTS and
           samples_beyond(n // (segments + 1), p) >= MIN_BEYOND):
        segments += 1
    values = [percentile(samples[i * n // segments:(i + 1) * n // segments],
                         p) for i in range(segments)]
    values.sort()
    middle = len(values) // 2
    if len(values) % 2:
        return values[middle]
    return (values[middle - 1] + values[middle]) / 2.0


def validate_benchmark(spec):
    """Errors in a BENCHMARK.json document (an empty list when valid)."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append("keys must be exactly %s" % sorted(keys))
        return errors
    command = spec["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32 or
            not all(isinstance(c, str) and len(c) <= 200 for c in command)):
        errors.append("command: 1 to 32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in command):
        errors.append("command: no absolute paths and no '..'")
    paths = spec["paths"]
    if (not isinstance(paths, list) or not 1 <= len(paths) <= 16 or
            not all(isinstance(p, str) and PATH_RE.match(p) and
                    not p.startswith("/") and ".." not in p.split("/")
                    for p in paths)):
        errors.append("paths: 1 to 16 relative directories")
    run_seconds = spec["run_seconds"]
    if (not isinstance(run_seconds, int) or isinstance(run_seconds, bool) or
            not 1 <= run_seconds <= 60):
        errors.append("run_seconds: a whole number from 1 to 60")
    names = []
    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        errors.append("workloads: 2 to 8")
        workloads = []
    for w in workloads:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            errors.append("workload %r: keys must be name, why" % (w,))
            continue
        names.append(w["name"])
        if (not isinstance(w["why"], str) or "\n" in w["why"] or
                not 1 <= len(w["why"]) <= 200):
            errors.append("workload %s: why is one line of at most 200 "
                          "characters" % w["name"])
    for section, bounded, limit in (("end_to_end", True, 16),
                                    ("per_layer", False, 128)):
        metrics = spec[section]
        if not isinstance(metrics, list) or not 1 <= len(metrics) <= limit:
            errors.append("%s: 1 to %d metrics" % (section, limit))
            continue
        want = {"name", "unit", "better"} | ({"bound"} if bounded else set())
        for m in metrics:
            if not isinstance(m, dict) or set(m) != want:
                errors.append("%s %r: keys must be %s" %
                              (section, m, sorted(want)))
                continue
            names.append(m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                errors.append("%s: bad unit %r" % (m["name"], m["unit"]))
            if m["better"] not in ("lower", "higher"):
                errors.append("%s: better must be lower or higher" %
                              m["name"])
            if bounded and not (isinstance(m["bound"], (int, float)) and
                                0 < m["bound"] <= 0.25):
                errors.append("%s: bound must be in (0, 0.25]" % m["name"])
    for name in names:
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append("bad name %r" % (name,))
    if len(names) != len(set(names)):
        errors.append("names must be unique")
    setup = [m for m in spec["end_to_end"] if isinstance(m, dict) and
             m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, better lower")
    return errors


def _from_source(source, raw, workload):
    """(value, samples, percentile label) of one metric; samples is None
    for scalars."""
    if source[0] == "value":
        return raw["values"].get(source[1]), None, ""
    samples = raw["series"].get(source[1]) or []
    p = source[2]
    if p == "query_tail":
        p = QUERY_TAIL[workload]
    elif p == "tail":
        p = supported_percentile(len(samples)) or 50
    if not samples:
        return None, 0, "p%g" % p
    return segmented_percentile(samples, p), len(samples), "p%g" % p


def summarize(raw, spec, workload, trace):
    """The reported metrics of one run.

    Returns (metrics, rows, warnings): metrics maps name to
    {"value", "unit"}; rows are (name, value, unit, detail) for the
    human-readable table; warnings name metrics the run could not measure
    as defined.
    """
    section = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, rows, warnings = {}, [], []
    for m in section:
        name = m["name"]
        if trace:
            source = PER_LAYER_SERIES.get(name, ("value", name))
        else:
            source = END_TO_END_SOURCES[name]
        value, n, label = _from_source(source, raw, workload)
        detail = ""
        if n is not None:
            detail = "%s of %d samples" % (label, n)
            p = float(label[1:])
            if p > 50 and n and samples_beyond(n, p) < MIN_BEYOND:
                warnings.append("%s: %d samples leave fewer than %d beyond "
                                "%s" % (name, n, MIN_BEYOND, label))
        if value is None:
            if trace:
                value, detail = 0, "not exercised by this workload"
            else:
                warnings.append("%s: not measured" % name)
                continue
        metrics[name] = {"value": value, "unit": m["unit"]}
        rows.append((name, value, m["unit"], detail))
    return metrics, rows, warnings
