// Ablation: parallel collection of individual heaps, and join-time
// subtree collection -- the two GC completions Section 5 plans.
//
// Part 1 isolates core/gc_parallel.hpp: one large quiesced heap holding
// a mixed object graph is evacuated by teams of increasing size. The
// paper's collector corresponds to team=1 ("each such collection is
// sequential"); the expected shape is collection time falling with team
// size until memory bandwidth saturates.
//
// Part 2 measures the join-time policy (gc_join_threshold): a
// promotion-heavy kernel leaves stale originals in child heaps at every
// join; collecting the quiesced two-sibling subtree before it merges
// upward lowers peak heap occupancy for some GC time.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common/harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/gc_parallel.hpp"
#include "core/hier_runtime.hpp"
#include "data/rand.hpp"

namespace {

using namespace parmem;

// Builds a mixed graph (~bytes of cells, arrays, and a fan hub) in one
// heap; returns roots.
std::vector<Object*> build_heap(HeapArena& arena, HeapRecord*& heap,
                                std::size_t target_bytes,
                                std::uint64_t seed) {
  heap = arena.create(nullptr, 0);
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
    void* mem = heap->allocate_raw(object_bytes(np, nn));
    Object* o = init_object(mem, np, nn);
    for (std::uint32_t k = 0; k < nn; ++k) {
      o->store_i64_plain(k, static_cast<std::int64_t>(rnd(1u << 30)));
    }
    const std::size_t window = objs.size() < 4096 ? objs.size() : 4096;
    for (std::uint32_t k = 0; k < np; ++k) {
      if (window > 0 && rnd(5) != 0) {
        o->store_ptr_plain(k, objs[objs.size() - 1 - rnd(window)]);
      }
    }
    used += object_bytes(np, nn);
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

  // --- Part 1: parallel evacuation of one big heap ----------------------
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
      HeapArena arena(pool);
      HeapRecord* heap = nullptr;
      // Same seed for every repetition and team size: all rows evacuate
      // the identical graph, so best-of-runs time and the copy counts
      // describe the same work.
      std::vector<Object*> roots =
          build_heap(arena, heap, heap_bytes, opt.sizes.seed);
      core::ParallelCollector pc(pool, {heap},
                                 core::ParallelGcOptions{team, 128});
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
      heap->install_chunk_list(nullptr, nullptr, 0);
    }
    if (team == 1) {
      t1 = best;
    }
    std::printf("%6u %10.3f %9.2fx %7.1fM %12llu %12llu\n", team, best,
                t1 / best,
                static_cast<double>(out.totals.bytes_copied) / 1048576.0,
                static_cast<unsigned long long>(out.totals.objects_copied),
                static_cast<unsigned long long>(out.claim_conflicts));
    std::fflush(stdout);
  }

  // --- Part 2: join-time subtree collection ------------------------------
  std::printf(
      "\nAblation: join-time subtree collection (usp-tree kernel, P=%u)\n\n",
      procs);
  std::printf("%-10s %9s %10s %8s %10s\n", "join-gc", "Tp(s)", "peakMB",
              "gcs", "gc%");
  print_rule(52);
  struct JoinPolicy {
    const char* label;
    std::size_t threshold;
    unsigned team;
  };
  // The team row collects the same subtrees with up to
  // gc_parallel_team workers: the driver plus the mutators its stop
  // parked, so the team is only as large as the parked set at each
  // join.
  const JoinPolicy policies[] = {
      {"off", 0, 0},
      {"64KiB", std::size_t{1} << 16, 0},
      {"64KiB-team", std::size_t{1} << 16, procs > 1 ? procs : 2},
  };
  for (const JoinPolicy& p : policies) {
    HierRuntime::Options ro;
    ro.workers = procs;
    ro.gc_join_threshold = p.threshold;
    ro.gc_parallel_team = p.team;
    HierRuntime rt(ro);
    const Measurement m =
        measure(rt, opt.sizes, opt.runs, [](HierRuntime& r, const Sizes& z) {
          return bench_usp_tree(r, z);
        });
    std::printf("%-10s %9.3f %10s %8llu %10s\n", p.label, m.seconds,
                fmt_mb(m.peak_bytes).c_str(),
                static_cast<unsigned long long>(m.stats.gc_count),
                fmt_pct(m.gc_fraction()).c_str());
    std::fflush(stdout);
  }
  std::printf(
      "\nexpected shape: part 1 -- collection time drops with team size "
      "(the paper's sequential collector is team=1); part 2 -- join-time "
      "collection trades GC work for lower peak occupancy on "
      "promotion-heavy joins, and the team row only wins once subtrees "
      "are large enough to amortize its packet and termination overhead\n");
  return 0;
}
