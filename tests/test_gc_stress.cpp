// GC-stress differential harness: run the paper kernels on all four
// runtimes with every collector firing as often as it can -- seq, stw
// and localheap with a 1-byte collection budget (collect at every
// allocation slow path; stw with growth 0 too), hier in gc_stress mode
// (leaf + join collection at every safepoint, internal-heap collection
// rung with a 1-byte threshold, periodic victimless stops) -- and
// assert the checksums are exactly those of an UNSTRESSED sequential
// run. Any object a collector moves but fails to re-point, any root it
// misses, any forwarding chain it breaks shows up as a checksum diff
// (or a crash) here.
#include <cstdint>
#include <cstdio>

#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"
#include "runtimes/localheap_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"
#include "tests/test_util.hpp"

namespace {

using namespace parmem;
using namespace parmem::bench;

// Smaller than test_kernels' tiny_sizes: stress mode collects at every
// safepoint, so per-kernel work is O(live * collections).
Sizes stress_sizes() {
  Sizes z;
  z.scale = 0.0003;
  z.seq_n = 1600;
  z.seq_grain = 256;
  z.sort_grain = 128;
  z.strassen_n = 16;
  z.strassen_cutoff = 8;
  z.ray_w = 32;
  z.ray_h = 24;
  z.dedup_n = 700;
  z.tourney_n = 512;
  z.reach_n = 900;
  z.usp_side = 18;
  return z;
}

template <class RT>
typename RT::Options stressed_options(unsigned workers) {
  typename RT::Options o;
  o.workers = workers;
  o.gc_min_budget = 1;  // collect at every allocation slow path
  return o;
}

template <>
HierRuntime::Options stressed_options<HierRuntime>(unsigned workers) {
  HierRuntime::Options o;
  o.workers = workers;
  o.gc_stress = true;
  return o;
}

// stw collects on the shared heap's bytes, not a task's: with growth 0
// the trigger stays at 1 byte after every collection, so every
// allocation slow path stops the world.
template <>
StwRuntime::Options stressed_options<StwRuntime>(unsigned workers) {
  StwRuntime::Options o;
  o.workers = workers;
  o.gc_min_budget = 1;
  o.gc_growth_factor = 0;
  return o;
}

// A stressed stw run on one worker must stop the world at least
// `stw_floor` times, or its row tests nothing. Its single buffer sees
// the same allocations in every run. With two workers a kernel this
// small can split its few chunks so that no buffer outgrows its first
// one, so those runs are not held to the floor.
template <class RT>
std::int64_t run_stressed(KernelOut (*fn)(RT&, const Sizes&), unsigned workers,
                          const Sizes& z, std::uint64_t stw_floor = 0) {
  RT rt(stressed_options<RT>(workers));
  const std::int64_t checksum = fn(rt, z).checksum;
  const std::uint64_t gcs = rt.stats().gc_count;
  std::fprintf(stderr, "%s workers %u: %llu collections\n", RT::kName,
               workers, static_cast<unsigned long long>(gcs));
  CHECK(workers > 1 || gcs >= stw_floor);
  return checksum;
}

#define STRESS_PARITY_TEST(name, fn, stw_floor)                            \
  PARMEM_TEST(stress_gc_matrix_##name) {                                   \
    const Sizes z = stress_sizes();                                        \
    SeqRuntime plain;                                                      \
    const std::int64_t ref = fn<SeqRuntime>(plain, z).checksum;            \
    CHECK_EQ(run_stressed<SeqRuntime>(&fn<SeqRuntime>, 1, z), ref);        \
    for (unsigned w : {1u, 2u}) {                                          \
      CHECK_EQ(run_stressed<StwRuntime>(&fn<StwRuntime>, w, z, stw_floor), \
               ref);                                                       \
      CHECK_EQ(run_stressed<LhRuntime>(&fn<LhRuntime>, w, z), ref);        \
      CHECK_EQ(run_stressed<HierRuntime>(&fn<HierRuntime>, w, z), ref);    \
    }                                                                      \
  }

// The test_kernels parity matrix under stress...
STRESS_PARITY_TEST(strassen, bench_strassen, 1)
STRESS_PARITY_TEST(raytracer, bench_raytracer, 1)
STRESS_PARITY_TEST(dedup, bench_dedup, 1)
// tourney allocates one 8 KiB array and then only writes scalars into
// it: its first allocation finds an empty heap, so no budget trigger
// can fire and stw never collects here.
STRESS_PARITY_TEST(tourney, bench_tourney, 0)
STRESS_PARITY_TEST(reachability, bench_reachability, 1)
// ...plus the promoting kernels, where hier's internal-heap collection
// actually relocates busy internal heaps mid-run.
STRESS_PARITY_TEST(usp_tree, bench_usp_tree, 1)
STRESS_PARITY_TEST(multi_usp_tree, bench_multi_usp_tree, 1)

// Under hier stress the internal collector must actually have run on
// the promoting kernel (the doorbell rings at threshold 1), and pure
// kernels must still promote nothing even though every heap is being
// collected constantly.
PARMEM_TEST(stress_gc_hier_mode_side_effects) {
  const Sizes z = stress_sizes();
  {
    HierRuntime rt(stressed_options<HierRuntime>(2));
    (void)bench_usp_tree(rt, z);
    Stats s = rt.stats();
    CHECK(s.internal_gc_count > 0);
    CHECK(s.gc_count > s.internal_gc_count);  // leaf/join collections too
  }
  {
    HierRuntime rt(stressed_options<HierRuntime>(2));
    (void)bench_strassen(rt, z);
    Stats s = rt.stats();
    CHECK_EQ(s.promotions, 0u);
    CHECK_EQ(s.promoted_bytes, 0u);
    CHECK(s.gc_count > 0);
  }
}

}  // namespace
