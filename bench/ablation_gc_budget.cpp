// Ablation: leaf-GC budget sensitivity. The hierarchical collector
// triggers a leaf collection when a heap's chunk bytes reach
// max(min_budget, growth * estimate), the estimate being the bytes its
// last collection evacuated plus what joins carried up since (see
// Heap::join_children). Smaller budgets collect more often (more
// copying, less memory); larger budgets trade memory for time. This
// sweep quantifies the trade-off on the allocation-heavy msort-pure
// benchmark.
#include <cstdio>

#include "bench_common/harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"

int main(int argc, char** argv) {
  using namespace parmem::bench;
  Options opt = parse_options(argc, argv);
  const unsigned procs = opt.procs;

  std::printf("Ablation: leaf-GC budget (msort-pure, hier, P=%u)\n\n",
              procs);
  std::printf("%-12s | %9s | %7s | %8s | %10s | %9s\n", "min budget",
              "time(s)", "GC%%", "GCs", "copiedMB", "peakMB");
  print_rule(70);

  for (const std::size_t budget :
       {std::size_t{256} << 10, std::size_t{1} << 20, std::size_t{4} << 20,
        std::size_t{16} << 20, std::size_t{64} << 20}) {
    parmem::HierRuntime::Options ro;
    ro.workers = procs;
    ro.gc_min_budget = budget;
    parmem::HierRuntime rt(ro);
    const Measurement m =
        measure(rt, opt.sizes, opt.runs,
                [](parmem::HierRuntime& r, const Sizes& z) {
                  return bench_msort_pure(r, z);
                });
    std::printf("%9zuKiB | %9.3f | %6.1f%% | %8llu | %10.1f | %9.1f\n",
                budget >> 10, m.seconds, 100.0 * m.gc_fraction(procs),
                static_cast<unsigned long long>(m.stats.gc_count),
                static_cast<double>(m.stats.gc_bytes_copied) /
                    (1024.0 * 1024.0),
                static_cast<double>(m.peak_bytes) / (1024.0 * 1024.0));
    std::fflush(stdout);
  }
  std::printf(
      "\nexpected shape: time and copied bytes fall as the budget "
      "grows, while peak memory rises -- the classic semispace "
      "time/space trade-off, applied per leaf heap\n");
  return 0;
}
