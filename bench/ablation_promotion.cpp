// Ablation: promotion serialization (Sections 4.4 and 5).
//
// usp-tree's visitation writes all promote into a single ancestor heap,
// and promotion locks the whole path, so visitations serialize: its
// speedup collapses even though the BFS itself is parallel. Running
// several usp-tree instances in parallel (multi-usp-tree) gives each
// instance its own promotion target, so promotions proceed in parallel
// again. usp (same BFS, non-pointer distances, no promotion) is the
// control.
#include <cstdio>

#include "bench_common/harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"
#include "runtimes/seq_runtime.hpp"

int main(int argc, char** argv) {
  using namespace parmem::bench;
  Options opt = parse_options(argc, argv);
  const unsigned procs = opt.procs;

  struct Item {
    const char* name;
    KernelOut (*fn)(parmem::HierRuntime&, const Sizes&);
  };
  const Item items[] = {
      {"usp", &bench_usp<parmem::HierRuntime>},
      {"usp-tree", &bench_usp_tree<parmem::HierRuntime>},
      {"multi-usp-tree", &bench_multi_usp_tree<parmem::HierRuntime>},
  };

  require_known_benches(opt, items);

  std::printf("Ablation: promotion path-locking serialization (P=%u)\n\n",
              procs);
  std::printf("%-15s %9s %9s %7s %12s %10s\n", "benchmark", "T1(s)",
              "Tp(s)", "spd", "promotions", "promoMB");
  print_rule(70);

  for (const Item& item : items) {
    if (!opt.selected(item.name)) {
      continue;
    }
    Measurement m1;
    Measurement mp;
    {
      parmem::HierRuntime rt({.workers = 1});
      m1 = measure(rt, opt.sizes, opt.runs,
                   [&item](parmem::HierRuntime& r, const Sizes& z) {
                     return item.fn(r, z);
                   });
    }
    {
      parmem::HierRuntime::Options ro;
      ro.workers = procs;
      parmem::HierRuntime rt(ro);
      mp = measure(rt, opt.sizes, opt.runs,
                   [&item](parmem::HierRuntime& r, const Sizes& z) {
                     return item.fn(r, z);
                   });
    }
    std::printf("%-15s %9.3f %9.3f %6.2fx %12llu %10.2f\n", item.name,
                m1.seconds, mp.seconds, m1.seconds / mp.seconds,
                static_cast<unsigned long long>(mp.stats.promotions),
                static_cast<double>(mp.stats.promoted_bytes) /
                    (1024.0 * 1024.0));
    std::fflush(stdout);
  }
  std::printf(
      "\nexpected shape: usp scales; usp-tree's speedup collapses "
      "toward (or below) 1 because every visitation promotes to the "
      "same heap under a path lock; multi-usp-tree recovers parallelism "
      "because instances promote into disjoint heaps (Section 4.4)\n");
  return 0;
}
