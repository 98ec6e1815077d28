// The paper's evaluation (Section 4) from one set of measurements:
//   Figure 10  pure kernels: times, overheads, speedups, GC share
//   Figure 11  imperative kernels: the same columns, plus hier's promoted MB
//   Figure 12  hier's speedup over seq as P grows from 1 to --procs
//   Figure 13  peak memory of seq, and stw's and hier's inflation over it
//   Section 4.4's promotion volume, localheap against hier
// across the paper's four systems:
//   mlton            -> parmem::SeqRuntime      (sequential baseline)
//   mlton-spoonhower -> parmem::StwRuntime      (parallel, STW GC)
//   manticore        -> parmem::LhRuntime       (local heaps + promotion)
//   mlton-parmem     -> parmem::HierRuntime     (hierarchical heaps)
//
// Each (kernel, runtime, P) runs once per invocation: seq at P=1, stw and
// localheap at 1 and P, hier at every P from 1 to P. Every table cell is
// read from that one measurement, and every measurement's checksum must
// equal seq's; a mismatch is printed and the exit status is 1.
//
// Run with --procs=P --runs=R --scale=F --bench=a,b --json=PATH --quick.
// --bench selects kernels (a table with none of its kernels selected is
// skipped); --json writes every measurement, one section per runtime
// (scripts/run_bench.sh records it as BENCH_runtimes.json, and
// scripts/perf_diff.py compares two such files).
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common/harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"
#include "runtimes/localheap_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"

namespace parmem::bench {
namespace {

struct Kernel {
  const char* name;
  int figure;      // 10 (pure) or 11 (imperative)
  bool localheap;  // runs on LhRuntime too
  KernelOut (*seq)(SeqRuntime&, const Sizes&);
  KernelOut (*stw)(StwRuntime&, const Sizes&);
  KernelOut (*lh)(LhRuntime&, const Sizes&);
  KernelOut (*hier)(HierRuntime&, const Sizes&);
};

#define KERNEL(nm, fn, figure, lh)                                    \
  Kernel {                                                            \
    nm, figure, lh, &fn<SeqRuntime>, &fn<StwRuntime>, &fn<LhRuntime>, \
        &fn<HierRuntime>                                              \
  }

// localheap runs the pure kernels except msort-pure ("--" in the paper:
// a Manticore compiler bug) and the imperative trio whose escaping
// writes are scalar stores. The paper calls the imperative kernels "not
// implementable in Manticore" (Section 4.2); localheap runs those three
// by promoting the shared arrays, which is the promotion table's
// O(input)-against-zero contrast. Figure 11 keeps the paper's
// three-system layout.
const Kernel kKernels[] = {
    KERNEL("fib", bench_fib, 10, true),
    KERNEL("tabulate", bench_tabulate, 10, true),
    KERNEL("map", bench_map, 10, true),
    KERNEL("reduce", bench_reduce, 10, true),
    KERNEL("filter", bench_filter, 10, true),
    KERNEL("msort-pure", bench_msort_pure, 10, false),
    KERNEL("dmm", bench_dmm, 10, true),
    KERNEL("smvm", bench_smvm, 10, true),
    KERNEL("strassen", bench_strassen, 10, true),
    KERNEL("raytracer", bench_raytracer, 10, true),
    KERNEL("msort", bench_msort, 11, false),
    KERNEL("dedup", bench_dedup, 11, true),
    KERNEL("tourney", bench_tourney, 11, true),
    KERNEL("reachability", bench_reachability, 11, true),
    KERNEL("usp", bench_usp, 11, false),
    KERNEL("usp-tree", bench_usp_tree, 11, false),
    KERNEL("multi-usp-tree", bench_multi_usp_tree, 11, false),
};

#undef KERNEL

template <class RT>
RuntimeRow run_system(const Options& opt, const char* name, unsigned procs,
                      KernelOut (*kernel)(RT&, const Sizes&)) {
  typename RT::Options ro;
  ro.workers = procs;
  RT rt(ro);
  return {RT::kName, name, procs, measure(rt, opt.sizes, opt.runs, kernel)};
}

class Figures {
 public:
  Figures(const std::vector<RuntimeRow>& rows, unsigned procs)
      : rows_(rows), procs_(procs) {}

  // The measurement of `kernel` on `runtime` at `procs` workers, or
  // nullptr for a configuration that does not run.
  const Measurement* find(const char* runtime, const char* kernel,
                          unsigned procs) const {
    for (const RuntimeRow& r : rows_) {
      if (r.procs == procs && std::strcmp(r.runtime, runtime) == 0 &&
          std::strcmp(r.name, kernel) == 0) {
        return &r.m;
      }
    }
    return nullptr;
  }
  const Measurement& at(const char* runtime, const char* kernel,
                        unsigned procs) const {
    return *find(runtime, kernel, procs);
  }

  // The selected kernels `keep` accepts; a table with none is skipped.
  template <class Keep>
  std::vector<const Kernel*> kernels(Keep keep) const {
    std::vector<const Kernel*> out;
    for (const Kernel& k : kKernels) {
      if (find(SeqRuntime::kName, k.name, 1) != nullptr && keep(k)) {
        out.push_back(&k);
      }
    }
    return out;
  }

  // T1, T1/Ts, Tp, Ts/Tp (and GCp) of one parallel system.
  void print_parallel(const char* runtime, const char* kernel, double ts,
                      bool gcp) const {
    const Measurement& t1 = at(runtime, kernel, 1);
    const Measurement& tp = at(runtime, kernel, procs_);
    std::printf("%7.3f %5.2f %7.3f %5.2f", t1.seconds, t1.seconds / ts,
                tp.seconds, ts / tp.seconds);
    if (gcp) {
      std::printf(" %5.1f", 100.0 * tp.gc_fraction(procs_));
    }
  }

  void fig10() const {
    const auto ks = kernels([](const Kernel& k) { return k.figure == 10; });
    if (ks.empty()) {
      return;
    }
    std::printf(
        "Figure 10: purely functional benchmarks "
        "(P=%u; medians of --runs runs; times in seconds)\n\n",
        procs_);
    std::printf("%-11s | %7s %5s | %7s %5s %7s %5s %5s | %7s %5s %7s %5s | "
                "%7s %5s %7s %5s %5s\n",
                "", "mlton", "", "spoonh", "", "", "", "", "mantic", "", "",
                "", "parmem", "", "", "", "");
    std::printf("%-11s | %7s %5s | %7s %5s %7s %5s %5s | %7s %5s %7s %5s | "
                "%7s %5s %7s %5s %5s\n",
                "benchmark", "Ts", "GCs", "T1", "ovh", "Tp", "spd", "GCp",
                "T1", "ovh", "Tp", "spd", "T1", "ovh", "Tp", "spd", "GCp");
    print_rule(132);
    for (const Kernel* k : ks) {
      const Measurement& seq = at(SeqRuntime::kName, k->name, 1);
      const double ts = seq.seconds;
      std::printf("%-11s | %7.3f %5.1f | ", k->name, ts,
                  100.0 * seq.gc_fraction());
      print_parallel(StwRuntime::kName, k->name, ts, true);
      std::printf(" | ");
      if (k->localheap) {
        print_parallel(LhRuntime::kName, k->name, ts, false);
      } else {
        std::printf("%7s %5s %7s %5s", "--", "--", "--", "--");
      }
      std::printf(" | ");
      print_parallel(HierRuntime::kName, k->name, ts, true);
      std::printf("\n");
    }
    std::printf(
        "\ncolumns: Ts sequential time; GCs %% time in GC (sequential); "
        "T1/Tp times on 1/P procs; ovh = T1/Ts; spd = Ts/Tp; GCp %% "
        "processor time in GC at P procs (CPU time of the collecting "
        "threads)\n\n");
  }

  void fig11() const {
    const auto ks = kernels([](const Kernel& k) { return k.figure == 11; });
    if (ks.empty()) {
      return;
    }
    std::printf(
        "Figure 11: imperative benchmarks (P=%u; medians of --runs runs; "
        "times in seconds)\n\n",
        procs_);
    std::printf("%-15s | %7s %5s | %7s %5s %7s %5s %5s | "
                "%7s %5s %7s %5s %5s | %9s\n",
                "", "mlton", "", "spoonh", "", "", "", "", "parmem", "", "",
                "", "", "parmem");
    std::printf("%-15s | %7s %5s | %7s %5s %7s %5s %5s | "
                "%7s %5s %7s %5s %5s | %9s\n",
                "benchmark", "Ts", "GCs", "T1", "ovh", "Tp", "spd", "GCp",
                "T1", "ovh", "Tp", "spd", "GCp", "promoMB");
    print_rule(124);
    for (const Kernel* k : ks) {
      const Measurement& seq = at(SeqRuntime::kName, k->name, 1);
      const double ts = seq.seconds;
      std::printf("%-15s | %7.3f %5.1f | ", k->name, ts,
                  100.0 * seq.gc_fraction());
      print_parallel(StwRuntime::kName, k->name, ts, true);
      std::printf(" | ");
      print_parallel(HierRuntime::kName, k->name, ts, true);
      std::printf(" | %9.2f\n",
                  static_cast<double>(
                      at(HierRuntime::kName, k->name, procs_)
                          .stats.promoted_bytes) /
                      (1024.0 * 1024.0));
    }
    std::printf(
        "\ncolumns as in Figure 10; promoMB = data promoted by "
        "mlton-parmem at P procs (usp-tree promotes per visitation; "
        "multi-usp-tree promotions can run in parallel)\n\n");
  }

  // The paper plots P=1..72; here the sweep runs P=1..procs. Expected
  // shape: speedups increase monotonically with P ("there are no
  // inversions"), except for the promotion-serialized usp-tree.
  void fig12() const {
    const auto ks = kernels([](const Kernel&) { return true; });
    if (ks.empty()) {
      return;
    }
    std::printf(
        "Figure 12: speedups (Ts / T_P) of mlton-parmem as P grows\n\n");
    std::printf("%-15s %8s ", "benchmark", "Ts");
    for (unsigned p = 1; p <= procs_; ++p) {
      std::printf("  P=%-5u", p);
    }
    std::printf("\n");
    print_rule(26 + 8 * static_cast<int>(procs_));
    for (const Kernel* k : ks) {
      const Measurement& seq = at(SeqRuntime::kName, k->name, 1);
      std::printf("%-15s %8.3f ", k->name, seq.seconds);
      for (unsigned p = 1; p <= procs_; ++p) {
        const Measurement& m = at(HierRuntime::kName, k->name, p);
        if (m.checksum != seq.checksum) {
          std::printf("  !MISM ");
        } else {
          std::printf("  %5.2fx", seq.seconds / m.seconds);
        }
      }
      std::printf("\n");
    }
    std::printf("\nexpected shape: monotone increase with P for all rows "
                "except usp-tree (promotion path-locking serializes it; "
                "multi-usp-tree recovers parallelism)\n\n");
  }

  // Ms is seq's peak; I1 and Ip are a parallel runtime's peaks over Ms
  // on 1 and P processors. The paper's expectations: inflation grows
  // with P; hierarchical heaps inflate somewhat more than the flat-heap
  // baseline (dedicated forwarding-pointer word + per-heap chunk
  // fragmentation).
  void fig13() const {
    const auto ks = kernels([](const Kernel&) { return true; });
    if (ks.empty()) {
      return;
    }
    std::printf("Figure 13: memory consumption (MB) and inflation (P=%u)\n\n",
                procs_);
    std::printf("%-15s | %9s | %7s %7s | %7s %7s\n", "", "mlton", "spoonh",
                "", "parmem", "");
    std::printf("%-15s | %9s | %7s %7s | %7s %7s\n", "benchmark", "Ms(MB)",
                "I1", "Ip", "I1", "Ip");
    print_rule(66);
    for (const Kernel* k : ks) {
      const auto ms =
          static_cast<double>(at(SeqRuntime::kName, k->name, 1).peak_bytes);
      auto inflation = [&](const char* runtime, unsigned p) {
        return static_cast<double>(at(runtime, k->name, p).peak_bytes) / ms;
      };
      std::printf("%-15s | %9.1f | %7.2f %7.2f | %7.2f %7.2f\n", k->name,
                  ms / (1024.0 * 1024.0), inflation(StwRuntime::kName, 1),
                  inflation(StwRuntime::kName, procs_),
                  inflation(HierRuntime::kName, 1),
                  inflation(HierRuntime::kName, procs_));
    }
    std::printf(
        "\nMs: sequential max heap occupancy; I1/Ip: parallel peak / Ms "
        "on 1 and P processors (chunk-pool watermark, includes "
        "fragmentation from parallel allocation)\n\n");
  }

  // Section 4.4: "we measured that on the map benchmark with 72 cores,
  // manticore promoted nearly 340MB of data in total, whereas
  // mlton-parmem performed no promotions."
  void promotion_volume(const Sizes& sizes) const {
    const auto ks = kernels([](const Kernel& k) { return k.localheap; });
    if (ks.empty()) {
      return;
    }
    std::printf(
        "Promotion volume per kernel (P=%u, seq-kernel input %.1f MB "
        "of elements)\n\n",
        procs_, static_cast<double>(sizes.seq_n) * 8.0 / (1024.0 * 1024.0));
    std::printf("%-12s | %-10s | %12s %12s %10s\n", "benchmark", "system",
                "promotions", "promoMB", "time(s)");
    print_rule(64);
    bool imp_header_printed = false;
    for (const Kernel* k : ks) {
      if (k->figure == 11 && !imp_header_printed) {
        std::printf("--- imperative kernels (escaping writes) ---\n");
        imp_header_printed = true;
      }
      for (const char* runtime : {LhRuntime::kName, HierRuntime::kName}) {
        const Measurement& m = at(runtime, k->name, procs_);
        std::printf("%-12s | %-10s | %12llu %12.2f %10.3f\n", k->name,
                    runtime,
                    static_cast<unsigned long long>(m.stats.promotions),
                    static_cast<double>(m.stats.promoted_bytes) /
                        (1024.0 * 1024.0),
                    m.seconds);
      }
    }
    std::printf(
        "\nexpected shape (Section 4.4): the local-heap (Manticore-like) "
        "runtime promotes data on the order of the input size -- for pure "
        "programs at spawns/publishes, for the imperative kernels at the "
        "spawn-time promotion of the shared arrays every escaping write "
        "targets; hierarchical heaps promote nothing on any row here "
        "(scalar mutation never entangles)\n");
  }

 private:
  const std::vector<RuntimeRow>& rows_;
  unsigned procs_;
};

}  // namespace
}  // namespace parmem::bench

int main(int argc, char** argv) {
  using namespace parmem::bench;
  const Options opt = parse_options(argc, argv);
  require_known_benches(opt, kKernels);
  const unsigned procs = opt.procs;
  std::vector<unsigned> ends{1};
  if (procs > 1) {
    ends.push_back(procs);
  }

  std::vector<RuntimeRow> rows;
  int mismatches = 0;
  for (const Kernel& k : kKernels) {
    if (!opt.selected(k.name)) {
      continue;
    }
    const std::size_t seq = rows.size();
    rows.push_back(run_system(opt, k.name, 1, k.seq));
    for (const unsigned p : ends) {
      rows.push_back(run_system(opt, k.name, p, k.stw));
    }
    if (k.localheap) {
      for (const unsigned p : ends) {
        rows.push_back(run_system(opt, k.name, p, k.lh));
      }
    }
    for (unsigned p = 1; p <= procs; ++p) {
      rows.push_back(run_system(opt, k.name, p, k.hier));
    }
    for (std::size_t i = seq + 1; i < rows.size(); ++i) {
      if (rows[i].m.checksum != rows[seq].m.checksum) {
        std::printf("!! checksum mismatch on %s/%s/P%u: %lld vs %lld\n",
                    k.name, rows[i].runtime, rows[i].procs,
                    static_cast<long long>(rows[i].m.checksum),
                    static_cast<long long>(rows[seq].m.checksum));
        ++mismatches;
      }
    }
  }

  const Figures figures(rows, procs);
  figures.fig10();
  figures.fig11();
  figures.fig12();
  figures.fig13();
  figures.promotion_volume(opt.sizes);

  if (!opt.json_out.empty()) {
    if (!write_runtime_json(opt.json_out, procs, opt.sizes, rows)) {
      return 2;
    }
    std::printf("per-runtime JSON written: %s\n", opt.json_out.c_str());
  }
  if (mismatches != 0) {
    std::printf("!! %d checksum mismatch(es)\n", mismatches);
    return 1;
  }
  return 0;
}
