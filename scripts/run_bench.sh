#!/usr/bin/env bash
# Build (Release) and run the perf baseline:
#   micro_ops            -> BENCH_micro.json    (google-benchmark JSON, the
#                                                baseline later perf PRs diff;
#                                                pinned to CPU 0; in full mode
#                                                each row is the median of 5
#                                                processes' medians of 5
#                                                repetitions)
#   fig08_op_costs       -> BENCH_fig08.txt     (the paper's Figure 8 matrix)
#   figures              -> BENCH_runtimes.json (every measurement behind
#                                                Figures 10-13 and the
#                                                promotion table, one section
#                                                per runtime: seq / stw /
#                                                localheap / hier)
#   ablations            -> BENCH_ablations.json (every row of the six
#                                                ablation tables: promotion,
#                                                finegrained, gc-budget, grain,
#                                                internal-gc, join-gc; each
#                                                with its setting label)
#   ablation_parallel_gc -> BENCH_parallel_gc.txt (team-scaling table)
#   ablation_oom         -> BENCH_oom.txt        (bounded-memory degradation
#                                                curve + allocation-fault sweep)
#   serve                -> BENCH_serve.json     (steady-state serving: req/s,
#                                                latency percentiles, RSS +
#                                                fragmentation per runtime)
#   serve --runtime=localheap sweep
#                        -> BENCH_global_gc.txt  (localheap steady-state RSS
#                                                vs gc_global_threshold: off /
#                                                1 MB / 16 MB)
#
# Usage: scripts/run_bench.sh [profile] [--quick] [--bench=FILTER]
#   profile          observability mode: instead of the baselines above,
#                    record a flame graph (SVG + collapsed stacks), a
#                    Perfetto-loadable Chrome trace, and a stats JSON
#                    per runtime under $BUILD/observe/ using the serve
#                    driver (one process per runtime via --runtime=).
#   --quick          smoke mode: short min-time / tiny sizes, for CI.
#   --bench=FILTER   run only matching benchmarks. For micro_ops the
#                    filter is a google-benchmark regex; for figures it
#                    is a comma-separated kernel list (fib,map,...), and
#                    a name figures does not know stops the script; the
#                    ablation and serve sections are skipped under a
#                    filter.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

QUICK=0
FILTER=""
PROFILE=0
for arg in "$@"; do
  case "$arg" in
    profile) PROFILE=1 ;;
    --quick) QUICK=1 ;;
    --bench=*) FILTER="${arg#--bench=}" ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

# ---- profile mode -----------------------------------------------------------
# One serve-driver run per runtime with the in-runtime observability
# layer on: PARMEM_PROFILE (sampling profiler -> collapsed stacks ->
# flame-graph SVG), PARMEM_TRACE (GC pauses / gate stalls / promotions
# as Chrome trace-event JSON), PARMEM_STATS_JSON (counters + pause
# percentiles; diff two recordings with scripts/perf_diff.py).
if [ "$PROFILE" -eq 1 ]; then
  cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD" -j"$(nproc)" --target serve >/dev/null
  OBS="$BUILD/observe"
  mkdir -p "$OBS"
  DURATION=$([ "$QUICK" -eq 1 ] && echo 1 || echo 5)
  for rt in seq stw localheap hier; do
    echo "== profiling runtime: $rt =="
    PARMEM_PROFILE="$OBS/$rt.folded" \
    PARMEM_TRACE="$OBS/$rt.trace.json" \
    PARMEM_STATS_JSON="$OBS/$rt.stats.jsonl" \
      "$BUILD/serve" --procs=2 --runtime="$rt" --duration="$DURATION"
    python3 "$ROOT/scripts/flamegraph.py" "$OBS/$rt.folded" \
      -o "$OBS/$rt.svg" --collapsed "$OBS/$rt.sym.folded"
  done
  echo
  echo "observability recordings written under $OBS/:"
  echo "  <rt>.svg          flame graph (phase-tagged; open in a browser)"
  echo "  <rt>.sym.folded   symbolized collapsed stacks (flamediff.py input)"
  echo "  <rt>.trace.json   Chrome trace (load in Perfetto / chrome://tracing)"
  echo "  <rt>.stats.jsonl  counters + pause percentiles (perf_diff.py input)"
  exit 0
fi

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j"$(nproc)" \
  --target micro_ops fig08_op_costs figures ablations ablation_parallel_gc \
           ablation_oom serve >/dev/null

# A filtered run is a subset: never let it overwrite the committed
# baselines that later perf PRs (and CI's asserts) diff against.
OUT_DIR="$ROOT"
if [ -n "$FILTER" ]; then
  OUT_DIR="$BUILD"
  echo "note: --bench filter active; writing results under $OUT_DIR" \
       "(committed baselines untouched)"
fi

BM_ARGS=("--benchmark_out_format=json")
if [ "$QUICK" -eq 1 ]; then
  BM_ARGS+=("--benchmark_min_time=0.05")
else
  BM_ARGS+=("--benchmark_min_time=0.5" "--benchmark_repetitions=5"
            "--benchmark_report_aggregates_only=true")
fi
if [ -n "$FILTER" ]; then
  BM_ARGS+=("--benchmark_filter=$FILTER")
fi

# One CPU, as the committed baseline is recorded: unpinned, idle pool
# workers steal fork2's right branches and the fork rows read several
# times slower.
PIN=()
if command -v taskset >/dev/null; then
  PIN=(taskset -c 0)
fi
# Two pinned processes of one binary differ by up to 2x on some rows,
# more than five repetitions inside one process do, so the full
# recording runs five processes and keeps each row's median of their
# medians (perf_diff.py gates on the median aggregate), and prints each
# row's spread across them.
if [ "$QUICK" -eq 1 ]; then
  ${PIN[@]+"${PIN[@]}"} "$BUILD/micro_ops" "${BM_ARGS[@]}" \
    "--benchmark_out=$OUT_DIR/BENCH_micro.json"
else
  MICRO_RUNS=()
  for i in 1 2 3 4 5; do
    ${PIN[@]+"${PIN[@]}"} "$BUILD/micro_ops" "${BM_ARGS[@]}" \
      "--benchmark_out=$BUILD/micro_ops.$i.json" >/dev/null
    MICRO_RUNS+=("$BUILD/micro_ops.$i.json")
  done
  python3 - "$OUT_DIR/BENCH_micro.json" "${MICRO_RUNS[@]}" <<'EOF'
import json
import sys

out, runs = sys.argv[1], [json.load(open(p)) for p in sys.argv[2:]]
medians = {}
for doc in runs:
    for b in doc["benchmarks"]:
        if b.get("aggregate_name") == "median":
            medians.setdefault(b["run_name"], []).append(b)
rows = []
print(f"{'micro_ops row':<32} {'median':>10} {'min':>10} {'max':>10}"
      f" {'spread':>7}  (cpu_time of {len(runs)} processes' medians)")
for name, bs in medians.items():
    cpu = [b["cpu_time"] for b in bs]
    row = dict(sorted(bs, key=lambda b: b["cpu_time"])[len(bs) // 2])
    row["process_cpu_times"] = cpu
    rows.append(row)
    mid = row["cpu_time"]
    print(f"{name:<32} {mid:10.2f} {min(cpu):10.2f} {max(cpu):10.2f}"
          f" {100 * (max(cpu) - min(cpu)) / mid:6.1f}%")
json.dump({"context": runs[0]["context"], "benchmarks": rows},
          open(out, "w"), indent=2)
EOF
fi

FIG08_ARGS=()
if [ "$QUICK" -eq 1 ]; then
  FIG08_ARGS+=("--quick")
fi
"$BUILD/fig08_op_costs" "${FIG08_ARGS[@]+"${FIG08_ARGS[@]}"}" \
  | tee "$OUT_DIR/BENCH_fig08.txt"

# Per-runtime comparison baseline: one JSON section per runtime, every
# (kernel, runtime, P) the figures print. Keep the sweep small even in
# full mode -- it covers four runtimes x up to two worker counts per
# kernel. The driver exits nonzero on any checksum mismatch.
FIGURES_ARGS=("--json=$OUT_DIR/BENCH_runtimes.json" "--procs=2")
if [ "$QUICK" -eq 1 ]; then
  FIGURES_ARGS+=("--quick")
else
  FIGURES_ARGS+=("--scale=0.2" "--runs=3")
fi
if [ -n "$FILTER" ]; then
  FIGURES_ARGS+=("--bench=$FILTER")
fi
"$BUILD/figures" "${FIGURES_ARGS[@]}"

# Ablation baseline: every row of the six ablation tables, each
# configuration measured once and checked against its kernel's first
# row (the driver exits nonzero on a mismatch or a broken internal-gc
# invariant, so this is a correctness gate too). Its kernel set differs
# from figures', so a --bench filter skips it.
if [ -z "$FILTER" ]; then
  ABL_ARGS=("--procs=2" "--json=$OUT_DIR/BENCH_ablations.json")
  if [ "$QUICK" -eq 1 ]; then
    ABL_ARGS+=("--quick")
  else
    ABL_ARGS+=("--scale=0.25" "--runs=3")
  fi
  "$BUILD/ablations" "${ABL_ARGS[@]}"
fi

# Parallel-GC baseline: team scaling of one-heap evacuation.
# Kernel-agnostic, so a --bench filter skips it rather than recording a
# half-empty table.
if [ -z "$FILTER" ]; then
  PGC_ARGS=("--procs=2")
  if [ "$QUICK" -eq 1 ]; then
    PGC_ARGS+=("--quick")
  else
    PGC_ARGS+=("--scale=0.25" "--runs=3")
  fi
  "$BUILD/ablation_parallel_gc" "${PGC_ARGS[@]}" \
    | tee "$OUT_DIR/BENCH_parallel_gc.txt"
fi

# Bounded-memory baseline: per-kernel degradation curve (budgets as
# fractions of each kernel's own peak) plus the allocation-fault sweep
# across all four runtimes. The driver exits nonzero on any silent
# corruption, so this section is also a correctness gate. Kernel set
# is fixed; a --bench filter skips it like the sections above.
if [ -z "$FILTER" ]; then
  OOM_ARGS=("--procs=2")
  if [ "$QUICK" -eq 1 ]; then
    OOM_ARGS+=("--quick")
  else
    OOM_ARGS+=("--scale=0.25" "--runs=3")
  fi
  "$BUILD/ablation_oom" "${OOM_ARGS[@]}" \
    | tee "$OUT_DIR/BENCH_oom.txt"
fi

# Steady-state serving baseline: fixed-count verify wave (checksums
# must agree across all four runtimes; the driver exits nonzero on a
# mismatch, so this is a correctness gate too) plus a fixed-duration
# measured wave per runtime. Kernel-agnostic; a --bench filter skips it.
if [ -z "$FILTER" ]; then
  SERVE_ARGS=("--procs=2" "--json=$OUT_DIR/BENCH_serve.json")
  if [ "$QUICK" -eq 1 ]; then
    SERVE_ARGS+=("--quick" "--duration=2")
  else
    SERVE_ARGS+=("--duration=5")
  fi
  "$BUILD/serve" "${SERVE_ARGS[@]}"
fi

# Global-collection baseline: the localheap runtime's stopped-world
# depth-0 cycle, swept over the promotion threshold on the serve
# workload (the design it exists for: bounding the promotion sink's
# steady-state footprint). 0 restores the pure paper-baseline sink,
# so the sweep records the leak-vs-pause trade directly.
if [ -z "$FILTER" ]; then
  GGC_ARGS=("--procs=2" "--runtime=localheap")
  if [ "$QUICK" -eq 1 ]; then
    GGC_ARGS+=("--quick" "--duration=1")
  else
    GGC_ARGS+=("--duration=3")
  fi
  {
    for thr in 0 1048576 16777216; do
      echo "== localheap serve, PARMEM_GC_GLOBAL_THRESHOLD=$thr =="
      PARMEM_GC_GLOBAL_THRESHOLD=$thr "$BUILD/serve" "${GGC_ARGS[@]}"
    done
  } | tee "$OUT_DIR/BENCH_global_gc.txt"
fi

echo
echo "results written: $OUT_DIR/BENCH_micro.json, $OUT_DIR/BENCH_fig08.txt," \
     "$OUT_DIR/BENCH_runtimes.json" \
     "${FILTER:+(ablation, oom and serve sections skipped under --bench)}"
if [ -z "$FILTER" ]; then
  echo "                 + $OUT_DIR/BENCH_ablations.json," \
       "$OUT_DIR/BENCH_parallel_gc.txt, $OUT_DIR/BENCH_oom.txt," \
       "$OUT_DIR/BENCH_serve.json, $OUT_DIR/BENCH_global_gc.txt"
fi
