#!/usr/bin/env python3
"""Gate on performance regressions between two recordings.

Compares a baseline and a current file, both in either supported
format (auto-detected per file):

  * google-benchmark JSON (BENCH_micro.json style): rows matched by
    benchmark name; the metric is cpu_time (median across repetitions
    when several rows share a name, preferring explicit median
    aggregate rows).
  * parmem stats JSON-lines (PARMEM_STATS_JSON output): records
    matched by runtime name + occurrence order; gated metrics are
    counters.gc_ns, counters.gc_pause_ns, memory.peak_bytes, and each
    pause kind's sum_ns / p95_ns / p99_ns.

A row REGRESSES when current > baseline * (1 + threshold) and the
absolute growth also exceeds --abs-floor (so sub-nanosecond noise on
fast-path rows cannot trip the gate). Improvements are reported, never
fatal. Exit status: 0 clean, 1 regression(s), 2 usage/input error.

Usage:
    perf_diff.py baseline.json current.json [--threshold 0.05]
                 [--abs-floor 0.05] [--only REGEX]
"""

import argparse
import json
import re
import statistics
import sys


def load_records(path):
    """Parse either format into {row_name: numeric value}."""
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "benchmarks" in doc:
        return bench_rows(doc), "google-benchmark"
    # JSON-lines of per-runtime stats objects.
    rows = {}
    seen = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        rt = rec.get("runtime", "?")
        idx = seen.get(rt, 0)
        seen[rt] = idx + 1
        tag = rt if idx == 0 else f"{rt}#{idx}"
        for name, val in stats_metrics(rec):
            rows[f"{tag}/{name}"] = val
    if not rows:
        raise ValueError(f"{path}: neither benchmark JSON nor stats JSONL")
    return rows, "stats-jsonl"


def bench_rows(doc):
    medians = {}
    samples = {}
    for b in doc["benchmarks"]:
        name = b.get("run_name", b["name"])
        if b.get("aggregate_name") == "median":
            medians[name] = float(b["cpu_time"])
        elif b.get("run_type", "iteration") == "iteration":
            samples.setdefault(name, []).append(float(b["cpu_time"]))
    rows = dict(medians)
    for name, vals in samples.items():
        rows.setdefault(name, statistics.median(vals))
    return rows


def stats_metrics(rec):
    yield "counters.gc_ns", float(rec["counters"]["gc_ns"])
    if "gc_pause_ns" in rec["counters"]:  # absent from older recordings
        yield "counters.gc_pause_ns", float(rec["counters"]["gc_pause_ns"])
    yield "memory.peak_bytes", float(rec["memory"]["peak_bytes"])
    for kind, hist in rec.get("pauses", {}).items():
        for metric in ("sum_ns", "p95_ns", "p99_ns"):
            yield f"pauses.{kind}.{metric}", float(hist[metric])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.05,
                    help="relative regression gate (default 0.05 = 5%%)")
    ap.add_argument("--abs-floor", type=float, default=0.05,
                    help="ignore absolute growth below this (same unit "
                         "as the metric; default 0.05)")
    ap.add_argument("--only", metavar="REGEX",
                    help="gate only rows whose name matches")
    args = ap.parse_args()

    try:
        base, base_fmt = load_records(args.baseline)
        cur, cur_fmt = load_records(args.current)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"perf_diff: {e}", file=sys.stderr)
        return 2
    if base_fmt != cur_fmt:
        print(f"perf_diff: format mismatch ({base_fmt} vs {cur_fmt})",
              file=sys.stderr)
        return 2

    pat = re.compile(args.only) if args.only else None
    common = [n for n in base if n in cur
              and (pat is None or pat.search(n))]
    if not common:
        print("perf_diff: no comparable rows", file=sys.stderr)
        return 2
    missing = [n for n in base if n not in cur]
    if missing:
        print(f"note: {len(missing)} baseline row(s) absent from current: "
              + ", ".join(sorted(missing)[:5]))

    regressions = []
    width = max(len(n) for n in common)
    print(f"{'row':<{width}} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(common):
        b, c = base[name], cur[name]
        delta = (c - b) / b if b else (0.0 if c == b else float("inf"))
        flag = ""
        if c > b * (1.0 + args.threshold) and (c - b) > args.abs_floor:
            flag = "  REGRESSION"
            regressions.append(name)
        elif b > c * (1.0 + args.threshold) and (b - c) > args.abs_floor:
            flag = "  improved"
        print(f"{name:<{width}} {b:12.3f} {c:12.3f} {100 * delta:+7.2f}%"
              f"{flag}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s) beyond "
              f"{100 * args.threshold:.1f}%: " + ", ".join(regressions))
        return 1
    print(f"\nOK: {len(common)} row(s) within {100 * args.threshold:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
