// Figure 10: execution times, overheads, speedups, and GC percentages
// of the purely functional benchmarks across the four systems:
//   mlton            -> parmem::SeqRuntime      (sequential baseline)
//   mlton-spoonhower -> parmem::StwRuntime      (parallel, STW GC)
//   manticore        -> parmem::LhRuntime       (local heaps + promotion)
//   mlton-parmem     -> parmem::HierRuntime     (hierarchical heaps)
//
// Run with --procs=P --runs=R --scale=F --bench=a,b --json=PATH --quick.
// --json records one section per runtime (scripts/run_bench.sh uses it
// for the BENCH_runtimes.json baseline).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common/harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"
#include "runtimes/localheap_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"

namespace parmem::bench {
namespace {

struct PureRow {
  const char* name;
  KernelOut (*seq)(SeqRuntime&, const Sizes&);
  KernelOut (*stw)(StwRuntime&, const Sizes&);
  KernelOut (*lh)(LhRuntime&, const Sizes&);
  KernelOut (*hier)(HierRuntime&, const Sizes&);
  bool lh_supported;  // msort-pure: "--" in the paper (compiler bug)
};

#define PURE_ROW(nm, fn, lh_ok)                                       \
  PureRow {                                                           \
    nm, &fn<SeqRuntime>, &fn<StwRuntime>, &fn<LhRuntime>,             \
        &fn<HierRuntime>, lh_ok                                       \
  }

const PureRow kRows[] = {
    PURE_ROW("fib", bench_fib, true),
    PURE_ROW("tabulate", bench_tabulate, true),
    PURE_ROW("map", bench_map, true),
    PURE_ROW("reduce", bench_reduce, true),
    PURE_ROW("filter", bench_filter, true),
    PURE_ROW("msort-pure", bench_msort_pure, false),
    PURE_ROW("dmm", bench_dmm, true),
    PURE_ROW("smvm", bench_smvm, true),
    PURE_ROW("strassen", bench_strassen, true),
    PURE_ROW("raytracer", bench_raytracer, true),
};

struct RowResult {
  const char* name = nullptr;
  Measurement seq;
  Measurement stw1;
  Measurement stwp;
  Measurement lh1;
  Measurement lhp;
  bool lh_ok = false;
  Measurement hier1;
  Measurement hierp;
};

template <class RT, class Fn>
Measurement run_system(const Options& opt, unsigned procs, Fn kernel) {
  typename RT::Options ro;
  ro.workers = procs;
  RT rt(ro);
  return measure(rt, opt.sizes, opt.runs,
                 [kernel](RT& r, const Sizes& z) { return kernel(r, z); });
}

void print_header(unsigned procs) {
  std::printf(
      "Figure 10: purely functional benchmarks "
      "(P=%u; medians of --runs runs; times in seconds)\n\n",
      procs);
  std::printf("%-11s | %7s %5s | %7s %5s %7s %5s %5s | %7s %5s %7s %5s | "
              "%7s %5s %7s %5s %5s\n",
              "", "mlton", "", "spoonh", "", "", "", "", "mantic", "", "",
              "", "parmem", "", "", "", "");
  std::printf("%-11s | %7s %5s | %7s %5s %7s %5s %5s | %7s %5s %7s %5s | "
              "%7s %5s %7s %5s %5s\n",
              "benchmark", "Ts", "GCs", "T1", "ovh", "Tp", "spd", "GCp",
              "T1", "ovh", "Tp", "spd", "T1", "ovh", "Tp", "spd", "GCp");
  print_rule(132);
}

}  // namespace
}  // namespace parmem::bench

int main(int argc, char** argv) {
  using namespace parmem::bench;
  Options opt = parse_options(argc, argv);
  const unsigned procs = opt.procs;
  print_header(procs);

  std::vector<RowResult> results;
  int mismatches = 0;
  for (const PureRow& row : kRows) {
    if (!opt.selected(row.name)) {
      continue;
    }
    RowResult res;
    res.name = row.name;
    res.lh_ok = row.lh_supported;
    res.seq = run_system<parmem::SeqRuntime>(opt, 1, row.seq);
    const double ts = res.seq.seconds;

    res.stw1 = run_system<parmem::StwRuntime>(opt, 1, row.stw);
    res.stwp = run_system<parmem::StwRuntime>(opt, procs, row.stw);

    if (row.lh_supported) {
      res.lh1 = run_system<parmem::LhRuntime>(opt, 1, row.lh);
      res.lhp = run_system<parmem::LhRuntime>(opt, procs, row.lh);
    }

    res.hier1 = run_system<parmem::HierRuntime>(opt, 1, row.hier);
    res.hierp = run_system<parmem::HierRuntime>(opt, procs, row.hier);

    // Cross-runtime verification: checksums must agree.
    auto check = [&](const Measurement& m, const char* sys) {
      if (m.checksum != res.seq.checksum) {
        std::printf("!! checksum mismatch on %s/%s: %lld vs %lld\n",
                    row.name, sys,
                    static_cast<long long>(m.checksum),
                    static_cast<long long>(res.seq.checksum));
        ++mismatches;
      }
    };
    check(res.stw1, "stw");
    check(res.stwp, "stw-p");
    if (row.lh_supported) {
      check(res.lh1, "localheap");
      check(res.lhp, "localheap-p");
    }
    check(res.hier1, "hier");
    check(res.hierp, "hier-p");

    std::printf("%-11s | %7.3f %5.1f | %7.3f %5.2f %7.3f %5.2f %5.1f | ",
                row.name, ts, 100.0 * res.seq.gc_fraction(),
                res.stw1.seconds, res.stw1.seconds / ts, res.stwp.seconds,
                ts / res.stwp.seconds, 100.0 * res.stwp.gc_fraction(procs));
    if (row.lh_supported) {
      std::printf("%7.3f %5.2f %7.3f %5.2f | ", res.lh1.seconds,
                  res.lh1.seconds / ts, res.lhp.seconds,
                  ts / res.lhp.seconds);
    } else {
      std::printf("%7s %5s %7s %5s | ", "--", "--", "--", "--");
    }
    std::printf("%7.3f %5.2f %7.3f %5.2f %5.1f\n", res.hier1.seconds,
                res.hier1.seconds / ts, res.hierp.seconds,
                ts / res.hierp.seconds,
                100.0 * res.hierp.gc_fraction(procs));
    std::fflush(stdout);
    results.push_back(res);
  }
  std::printf(
      "\ncolumns: Ts sequential time; GCs %% time in GC (sequential); "
      "T1/Tp times on 1/P procs; ovh = T1/Ts; spd = Ts/Tp; GCp %% "
      "processor time in GC at P procs (CPU time of the collecting "
      "threads)\n");

  RuntimeJson json;
  if (json.open(opt.json_out, procs, opt.sizes)) {
    json.begin_runtime(parmem::SeqRuntime::kName);
    for (const RowResult& r : results) {
      json.add(r.name, 1, r.seq);
    }
    json.end_runtime();
    // (name, procs) is the key consumers diff on: emit the P-procs row
    // only when it is distinct from the 1-proc row.
    json.begin_runtime(parmem::StwRuntime::kName);
    for (const RowResult& r : results) {
      json.add(r.name, 1, r.stw1);
      if (procs != 1) {
        json.add(r.name, procs, r.stwp);
      }
    }
    json.end_runtime();
    json.begin_runtime(parmem::LhRuntime::kName);
    for (const RowResult& r : results) {
      if (r.lh_ok) {
        json.add(r.name, 1, r.lh1);
        if (procs != 1) {
          json.add(r.name, procs, r.lhp);
        }
      }
    }
    json.end_runtime();
    json.begin_runtime(parmem::HierRuntime::kName);
    for (const RowResult& r : results) {
      json.add(r.name, 1, r.hier1);
      if (procs != 1) {
        json.add(r.name, procs, r.hierp);
      }
    }
    json.end_runtime();
    json.close();
    std::printf("per-runtime JSON written: %s\n", opt.json_out.c_str());
  }
  if (mismatches != 0) {
    std::printf("!! %d checksum mismatch(es)\n", mismatches);
    return 1;
  }
  return 0;
}
