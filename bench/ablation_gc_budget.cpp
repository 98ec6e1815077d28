// Ablation: leaf-GC budget sensitivity. The hierarchical collector
// triggers a leaf collection when a heap's chunk bytes reach
// max(min_budget, growth * estimate), the estimate being the bytes its
// last collection evacuated plus what joins carried up since (see
// Heap::join_children). Smaller budgets collect more often (more
// copying, less memory); larger budgets trade memory for time. This
// sweep quantifies the trade-off on the allocation-heavy msort-pure
// benchmark, and on map, whose merged heaps come out mostly live: a
// budget-triggered collection that finds at least 3/4 of its heap live
// keeps it in place (the "kept" column) instead of copying it again.
// msort-pure never keeps a heap.
#include <cstdio>

#include "bench_common/harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"

namespace {

using namespace parmem::bench;

template <class Kernel>
void sweep(const char* name, const Options& opt, Kernel&& kernel) {
  for (const std::size_t budget :
       {std::size_t{256} << 10, std::size_t{1} << 20, std::size_t{4} << 20,
        std::size_t{16} << 20, std::size_t{64} << 20}) {
    parmem::HierRuntime::Options ro;
    ro.workers = opt.procs;
    ro.gc_min_budget = budget;
    parmem::HierRuntime rt(ro);
    const Measurement m = measure(rt, opt.sizes, opt.runs, kernel);
    std::printf(
        "%-10s | %9zuKiB | %9.3f | %6.1f%% | %8llu | %6llu | %10.1f | "
        "%9.1f\n",
        name, budget >> 10, m.seconds, 100.0 * m.gc_fraction(opt.procs),
        static_cast<unsigned long long>(m.stats.gc_count),
        static_cast<unsigned long long>(m.stats.gc_kept),
        static_cast<double>(m.stats.gc_bytes_copied) / (1024.0 * 1024.0),
        static_cast<double>(m.peak_bytes) / (1024.0 * 1024.0));
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  std::printf("Ablation: leaf-GC budget (msort-pure and map, hier, P=%u)\n\n",
              opt.procs);
  std::printf("%-10s | %12s | %9s | %7s | %8s | %6s | %10s | %9s\n", "bench",
              "min budget", "time(s)", "GC%", "GCs", "kept", "copiedMB",
              "peakMB");
  print_rule(90);
  sweep("msort-pure", opt, [](parmem::HierRuntime& r, const Sizes& z) {
    return bench_msort_pure(r, z);
  });
  sweep("map", opt, [](parmem::HierRuntime& r, const Sizes& z) {
    return bench_map(r, z);
  });
  std::printf(
      "\nexpected shape: time and copied bytes fall as the budget "
      "grows, while peak memory rises -- the classic semispace "
      "time/space trade-off, applied per leaf heap\n");
  return 0;
}
