#!/usr/bin/env python3
"""Attribute the difference between two parmem profile recordings.

Takes two collapsed-stack recordings (core/profiler.hpp output) --
baseline and current -- normalizes each to sample shares, and reports
where the time moved: per runtime phase first (the head segment of
every folded stack: mutator / leaf-GC / join-GC / internal-GC /
global-GC / stw-GC / parallel-evac / promotion / steal / park /
gate-stall), then per
function. This answers "the run got slower -- WHICH phase absorbed the
extra time?" without the two recordings needing equal durations or
sample counts.

Usage:
    flamediff.py baseline.folded current.folded [--top 15] [--raw]

Exit status is 0; pair with perf_diff.py for gating.
"""

import argparse
import sys
from collections import defaultdict

from flamegraph import parse_collapsed, symbolize

GC_PHASES = ("leaf-GC", "join-GC", "internal-GC", "global-GC", "stw-GC",
             "parallel-evac")


def shares(stacks):
    """(phase->share, function->inclusive share, total samples)."""
    total = sum(c for _, c in stacks) or 1
    by_phase = defaultdict(int)
    by_func = defaultdict(int)
    for frames, count in stacks:
        by_phase[frames[0]] += count
        for fr in set(frames[1:]):  # inclusive, counted once per stack
            by_func[fr] += count
    return ({k: v / total for k, v in by_phase.items()},
            {k: v / total for k, v in by_func.items()},
            total)


def load(path, raw):
    meta, stacks = parse_collapsed(path)
    if not stacks:
        sys.exit(f"{path}: no samples")
    if not raw:
        stacks = symbolize(stacks, meta["binary"], meta["base"])
    return stacks


def fmt_pct(x):
    return f"{100.0 * x:6.2f}%"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--top", type=int, default=15,
                    help="function rows to show (default 15)")
    ap.add_argument("--raw", action="store_true",
                    help="skip symbolization, diff hex frames")
    args = ap.parse_args()

    base_phase, base_func, base_n = shares(load(args.baseline, args.raw))
    cur_phase, cur_func, cur_n = shares(load(args.current, args.raw))

    print(f"baseline: {args.baseline} ({base_n} samples)")
    print(f"current:  {args.current} ({cur_n} samples)")
    print()
    print("phase attribution (share of samples):")
    print(f"  {'phase':<14} {'baseline':>9} {'current':>9} {'delta':>9}")
    deltas = {}
    for ph in sorted(set(base_phase) | set(cur_phase),
                     key=lambda p: -(cur_phase.get(p, 0.0)
                                     - base_phase.get(p, 0.0))):
        b = base_phase.get(ph, 0.0)
        c = cur_phase.get(ph, 0.0)
        deltas[ph] = c - b
        print(f"  {ph:<14} {fmt_pct(b)} {fmt_pct(c)} {100 * (c - b):+8.2f}pt")
    gc_delta = sum(deltas.get(p, 0.0) for p in GC_PHASES)
    gc_base = sum(base_phase.get(p, 0.0) for p in GC_PHASES)
    gc_cur = sum(cur_phase.get(p, 0.0) for p in GC_PHASES)
    print(f"  {'GC (all)':<14} {fmt_pct(gc_base)} {fmt_pct(gc_cur)} "
          f"{100 * gc_delta:+8.2f}pt")
    if deltas:
        top_phase = max(deltas, key=lambda p: abs(deltas[p]))
        if abs(gc_delta) >= abs(deltas[top_phase]) and top_phase in GC_PHASES:
            print(f"\nlargest shift: GC phases "
                  f"({100 * gc_delta:+.2f}pt, led by {top_phase})")
        else:
            print(f"\nlargest shift: {top_phase} "
                  f"({100 * deltas[top_phase]:+.2f}pt)")

    func_delta = {
        fn: cur_func.get(fn, 0.0) - base_func.get(fn, 0.0)
        for fn in set(base_func) | set(cur_func)
    }
    movers = sorted(func_delta.items(), key=lambda kv: -abs(kv[1]))
    movers = [m for m in movers if abs(m[1]) > 0.0005][:args.top]
    if movers:
        print("\ntop function shifts (inclusive share):")
        print(f"  {'delta':>9}  function")
        for fn, d in movers:
            print(f"  {100 * d:+8.2f}pt  {fn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
