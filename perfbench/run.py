#!/usr/bin/env python3
"""The parmem benchmark: builds perfbench/ (Release) and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all      # every workload, both modes
  python3 perfbench/run.py --self-test         # the benchmark's own tests

NAME is one of serve, serve_shared, batch_pure, serve_stw (see
BENCHMARK.json for why each is there). The build goes to
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
With --trace 1 the recorded spans are written next to the build as
spans-NAME.bin. The last line of stdout is the result as one JSON object;
the exit code is 0 only if every output check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve", "serve_shared", "batch_pure", "serve_stw"]
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(target):
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(["cmake", "-S", SOURCE_DIR, "-B", bdir,
                              "-DCMAKE_BUILD_TYPE=Release"] + gen,
                             stdout=sys.stderr)
        if cfg.returncode != 0:
            return None
    step = subprocess.run(["cmake", "--build", bdir, "--target", target,
                           "--parallel", "2"], stdout=sys.stderr)
    return os.path.join(bdir, target) if step.returncode == 0 else None


def run_one(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), "spans-%s.bin" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=min(170.0, 60.0 + 6.0 * seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None, 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        print("perfbench: %s printed no result" % workload, file=sys.stderr)
        return None, proc.returncode or 1
    return proc.stdout, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        exe = build("perfbench_tests")
        return subprocess.run([exe]).returncode if exe else 1
    if args.workload is None:
        ap.error("--workload is required")
    exe = build("perfbench")
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.workload != "all":
        out, code = run_one(exe, args.workload, args.seed, args.seconds,
                            args.trace)
        if out is not None:
            sys.stdout.write(out)
        return code

    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            out, code = run_one(exe, workload, args.seed, args.seconds, trace)
            worst = worst or code
            print("== %s trace=%d exit=%d" % (workload, trace, code))
            if out is not None:
                sys.stdout.write(out)
    return worst


if __name__ == "__main__":
    sys.exit(main())
