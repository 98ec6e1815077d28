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
    pause kind's sum_ns / p95_ns / p99_ns. Two matched records that
    both carry a "config" object must agree on every key both carry:
    runs of different configurations are not compared (exit 2). A key
    only one side carries (a recording made before it was exported) is
    noted and skipped, and recordings from before the config was
    exported still compare.
  * the figure and ablation drivers' per-runtime JSON
    (BENCH_runtimes.json and BENCH_ablations.json, written by
    scripts/run_bench.sh): rows runtime/bench/P<procs>/seconds and
    .../peak_bytes, with the row's setting after P<procs> when it has
    one (hier/map/P2/gc_min_budget=1MiB/seconds). Two matched rows must
    carry the same checksum: a run that computed a different answer is
    not compared (exit 2).

A row REGRESSES when current > baseline * (1 + threshold) and the
absolute growth also exceeds --abs-floor (so sub-nanosecond noise on
fast-path rows cannot trip the gate). A google-benchmark baseline row
that records its processes' medians in process_cpu_times (the way
scripts/run_bench.sh writes BENCH_micro.json) is gated at the larger of
--threshold and its own spread, (max - min) / median of those times:
separate processes of one binary spread by up to a third on some rows,
so a smaller move on such a row is not evidence of a change. A */peak_bytes row must also grow
by more than one 256 KiB chunk: a peak counts whole chunks, and which
worker touches one more decides it run to run. Improvements are
reported, never fatal. Exit status: 0 clean, 1 regression(s), 2
usage/input error.

Usage:
    perf_diff.py baseline.json current.json [--threshold 0.05]
                 [--abs-floor 0.05] [--only REGEX]
"""

import argparse
import json
import re
import statistics
import sys


# What two matched records' identities are, per format: records whose
# identities differ are not compared.
IDENTITY = {
    "stats-jsonl": "config",
    "runtimes-json": "checksum",
}

# kChunkBytes (core/heap.hpp): the step a peak_bytes row moves in.
CHUNK_BYTES = 256 * 1024


def load_records(path):
    """Parse any format into ({row_name: numeric value}, format,
    {record tag: identity}, {row_name: spread}); the identity is a
    stats record's config object or a runtimes row's checksum, and the
    map is empty for benchmark JSON and for stats records without a
    config. Only benchmark rows with process_cpu_times have a spread."""
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "benchmarks" in doc:
        return bench_rows(doc), "google-benchmark", {}, bench_spreads(doc)
    if isinstance(doc, dict) and "runtimes" in doc:
        rows, checksums = runtimes_rows(doc)
        return rows, "runtimes-json", checksums, {}
    # JSON-lines of per-runtime stats objects.
    rows = {}
    seen = {}
    configs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        rt = rec.get("runtime", "?")
        idx = seen.get(rt, 0)
        seen[rt] = idx + 1
        tag = rt if idx == 0 else f"{rt}#{idx}"
        if "config" in rec:
            configs[tag] = rec["config"]
        for name, val in stats_metrics(rec):
            rows[f"{tag}/{name}"] = val
    if not rows:
        raise ValueError(f"{path}: neither benchmark JSON nor stats JSONL")
    return rows, "stats-jsonl", configs, {}


def bench_spreads(doc):
    """{row_name: (max - min) / median} of each row's process_cpu_times."""
    spreads = {}
    for b in doc["benchmarks"]:
        times = b.get("process_cpu_times")
        if times:
            mid = statistics.median(times)
            if mid > 0:
                spreads[b.get("run_name", b["name"])] = \
                    (max(times) - min(times)) / mid
    return spreads


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


def runtimes_rows(doc):
    rows = {}
    checksums = {}
    for rt, records in doc["runtimes"].items():
        for r in records:
            tag = f"{rt}/{r['name']}/P{r['procs']}"
            if r.get("setting"):
                tag += f"/{r['setting']}"
            checksums[tag] = r["checksum"]
            rows[f"{tag}/seconds"] = float(r["seconds"])
            rows[f"{tag}/peak_bytes"] = float(r["peak_bytes"])
    return rows, checksums


def shared_identity(tag, base, cur):
    """Two identities cut to what both sides record: a config key that
    only one stats record carries (one side predates it) is noted, not
    compared."""
    if not (isinstance(base, dict) and isinstance(cur, dict)):
        return base, cur
    for key in sorted(base.keys() ^ cur.keys()):
        side = "baseline" if key in base else "current"
        print(f"note: {tag} config key {key!r} only in {side}; not compared")
    shared = base.keys() & cur.keys()
    return ({k: base[k] for k in shared}, {k: cur[k] for k in shared})


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
        base, base_fmt, base_id, base_spread = load_records(args.baseline)
        cur, cur_fmt, cur_id, _ = load_records(args.current)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"perf_diff: {e}", file=sys.stderr)
        return 2
    if base_fmt != cur_fmt:
        print(f"perf_diff: format mismatch ({base_fmt} vs {cur_fmt})",
              file=sys.stderr)
        return 2
    differ = []
    for tag in sorted(t for t in base_id if t in cur_id):
        b, c = shared_identity(tag, base_id[tag], cur_id[tag])
        if b != c:
            differ.append(tag)
            print(f"perf_diff: {tag} ran with a different "
                  f"{IDENTITY[base_fmt]}: {json.dumps(b, sort_keys=True)} "
                  f"vs {json.dumps(c, sort_keys=True)}", file=sys.stderr)
    if differ:
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
        floor = args.abs_floor
        if name.endswith("/peak_bytes"):
            floor = max(floor, CHUNK_BYTES)
        gate = max(args.threshold, base_spread.get(name, 0.0))
        flag = ""
        if c > b * (1.0 + gate) and (c - b) > floor:
            flag = "  REGRESSION"
            regressions.append(name)
        elif b > c * (1.0 + gate) and (b - c) > floor:
            flag = "  improved"
        elif name in base_spread and abs(delta) > args.threshold:
            flag = f"  within baseline spread {100 * gate:.1f}%"
        print(f"{name:<{width}} {b:12.3f} {c:12.3f} {100 * delta:+7.2f}%"
              f"{flag}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s) beyond "
              f"{100 * args.threshold:.1f}% or their baseline spread: "
              + ", ".join(regressions))
        return 1
    print(f"\nOK: {len(common)} row(s) within {100 * args.threshold:.1f}% "
          f"or their baseline spread")
    return 0


if __name__ == "__main__":
    sys.exit(main())
