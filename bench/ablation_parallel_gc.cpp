// Ablation: parallel collection of individual heaps, one of the two GC
// completions Section 5 plans (the other, join-time subtree collection,
// is the join-gc sweep of bench/ablations.cpp).
//
// This isolates core/gc_parallel.hpp: one large quiesced heap holding a
// mixed object graph is evacuated by teams of increasing size. The
// paper's collector corresponds to team=1 ("each such collection is
// sequential"); the expected shape is collection time falling with team
// size until memory bandwidth saturates.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common/harness.hpp"
#include "core/gc_parallel.hpp"
#include "data/rand.hpp"

namespace {

using namespace parmem;

// Builds a mixed graph (~bytes of cells, arrays, and a fan hub) in one
// heap; returns roots.
std::vector<Object*> build_heap(Heap& heap, std::size_t target_bytes,
                                std::uint64_t seed) {
  std::uint64_t s = seed;
  auto rnd = [&s](std::uint64_t mod) {
    s = data::hash64(s, mod + 1);
    return s % mod;
  };
  std::vector<Object*> objs;
  std::size_t used = 0;
  while (used < target_bytes) {
    // Supercritical fan-out within a sliding window: overlapping windows
    // percolate backward, so the periodic roots below anchor nearly the
    // whole heap through wide (parallelism-friendly) subgraphs.
    const auto np = static_cast<std::uint32_t>(1 + rnd(3));
    const auto nn = static_cast<std::uint32_t>(1 + rnd(24));
    Object* o = heap.bump_alloc(np, nn);
    o->zero_fields();
    for (std::uint32_t k = 0; k < nn; ++k) {
      o->set_scalar(k, static_cast<std::int64_t>(rnd(1u << 30)));
    }
    const std::size_t window = objs.size() < 4096 ? objs.size() : 4096;
    for (std::uint32_t k = 0; k < np; ++k) {
      if (window > 0 && rnd(5) != 0) {
        o->set_ptr_relaxed(k, objs[objs.size() - 1 - rnd(window)]);
      }
    }
    used += o->size();
    objs.push_back(o);
  }
  std::vector<Object*> roots;
  for (std::size_t i = 0; i < objs.size(); i += 2048) {
    roots.push_back(objs[i]);
  }
  roots.push_back(objs.back());
  return roots;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parmem::bench;
  Options opt = parse_options(argc, argv);
  const unsigned procs = opt.procs;

  const std::size_t heap_bytes = static_cast<std::size_t>(
      96.0 * 1024.0 * 1024.0 * (opt.sizes.scale < 1.0 ? opt.sizes.scale : 1.0));
  std::printf("Ablation: parallel collection of one heap (%zu MB live-ish)\n\n",
              heap_bytes >> 20);
  std::printf("%6s %10s %10s %8s %12s %12s\n", "team", "gc(s)", "spd",
              "copied", "objects", "conflicts");
  print_rule(64);

  double t1 = 0.0;
  for (unsigned team = 1; team <= 2 * procs; team *= 2) {
    double best = 1e99;
    core::ParallelGcOutcome out{};
    for (int r = 0; r < opt.runs; ++r) {
      ChunkPool pool;
      Heap heap(nullptr, 0, &pool);
      // Same seed for every repetition and team size: all rows evacuate
      // the identical graph, so best-of-runs time and the copy counts
      // describe the same work.
      std::vector<Object*> roots =
          build_heap(heap, heap_bytes, opt.sizes.seed);
      core::ParallelCollector pc(pool, &heap, team);
      Timer timer;
      core::ParallelGcOutcome run_out = pc.collect([&roots](auto&& f) {
        for (Object*& root : roots) {
          f(&root);
        }
      });
      double seconds = timer.seconds();
      if (seconds < best) {
        best = seconds;
        out = std::move(run_out);
      }
    }
    if (team == 1) {
      t1 = best;
    }
    std::printf("%6u %10.3f %9.2fx %7.1fM %12llu %12llu\n", team, best,
                t1 / best,
                static_cast<double>(out.totals.bytes_copied) / 1048576.0,
                static_cast<unsigned long long>(out.totals.objects_copied),
                static_cast<unsigned long long>(out.totals.claim_conflicts));
    std::fflush(stdout);
  }

  std::printf(
      "\nexpected shape: collection time drops with team size (the "
      "paper's sequential collector is team=1)\n");
  return 0;
}
