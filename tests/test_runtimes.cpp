// Cross-runtime parity: every workload kernel must produce the same
// checksum on seq, stw, localheap, and hier, at 1 and 2 workers --
// the guarantee that makes fig10-fig13's comparisons meaningful.
// Plus regression tests for the behaviours that distinguish the
// runtimes (promotion volume, STW cycles, small starter chunks).
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

Sizes tiny_sizes() {
  Sizes z;
  z.scale = 0.001;
  z.seq_n = 6000;
  z.msort_n = 5000;
  z.msort_pure_n = 4000;
  z.sort_grain = 256;
  z.seq_grain = 512;
  z.fib_n = 14;
  z.dmm_n = 20;
  z.smvm_rows = 2000;
  z.usp_side = 12;
  return z;
}

template <class RT>
std::int64_t run_kernel(KernelOut (*fn)(RT&, const Sizes&), unsigned workers,
                        const Sizes& z) {
  typename RT::Options o;
  o.workers = workers;
  RT rt(o);
  // Twice on the same runtime: checksums must be stable across the
  // reuse of chunk pools / worker heaps that bench_common::measure does.
  std::int64_t first = fn(rt, z).checksum;
  CHECK_EQ(fn(rt, z).checksum, first);
  return first;
}

#define PARITY_TEST(name, fn)                                            \
  PARMEM_TEST(parity_##name) {                                           \
    const Sizes z = tiny_sizes();                                        \
    const std::int64_t ref = run_kernel<SeqRuntime>(&fn<SeqRuntime>, 1, z); \
    for (unsigned w : {1u, 2u}) {                                        \
      CHECK_EQ(run_kernel<StwRuntime>(&fn<StwRuntime>, w, z), ref);      \
      CHECK_EQ(run_kernel<LhRuntime>(&fn<LhRuntime>, w, z), ref);        \
      CHECK_EQ(run_kernel<HierRuntime>(&fn<HierRuntime>, w, z), ref);    \
    }                                                                    \
  }

PARITY_TEST(fib, bench_fib)
PARITY_TEST(tabulate, bench_tabulate)
PARITY_TEST(map, bench_map)
PARITY_TEST(reduce, bench_reduce)
PARITY_TEST(filter, bench_filter)
PARITY_TEST(msort_pure, bench_msort_pure)
PARITY_TEST(dmm, bench_dmm)
PARITY_TEST(smvm, bench_smvm)
PARITY_TEST(msort, bench_msort)
PARITY_TEST(usp, bench_usp)
PARITY_TEST(usp_tree, bench_usp_tree)
PARITY_TEST(multi_usp_tree, bench_multi_usp_tree)

// The Section 4.4 contrast, as a hard assertion: on a pure structured
// kernel the local-heap runtime promotes data on the order of the
// input, while hierarchical heaps promote nothing at all.
PARMEM_TEST(localheap_promotes_pure_kernels_hier_does_not) {
  const Sizes z = tiny_sizes();
  {
    LhRuntime rt(LhRuntime::Options{.workers = 2});
    (void)bench_map(rt, z);
    Stats s = rt.stats();
    CHECK(s.promotions > 0);
    // Input rope + output rope are each ~8 bytes/element plus headers.
    CHECK(s.promoted_bytes >
          static_cast<std::uint64_t>(z.seq_n) * 8);
  }
  {
    HierRuntime rt(HierRuntime::Options{.workers = 2});
    (void)bench_map(rt, z);
    Stats s = rt.stats();
    CHECK_EQ(s.promotions, 0u);
    CHECK_EQ(s.promoted_bytes, 0u);
  }
}

// usp-tree's visitation writes must entangle and promote under
// hierarchical heaps (one promotion per visited cell), while plain usp
// (scalar distances only) must not promote at all.
PARMEM_TEST(usp_tree_promotes_per_visitation) {
  Sizes z = tiny_sizes();
  z.usp_side = 10;
  HierRuntime rt(HierRuntime::Options{.workers = 2});
  (void)bench_usp(rt, z);
  CHECK_EQ(rt.stats().promotions, 0u);
  (void)bench_usp_tree(rt, z);
  // Every cell except those visited from the root task's own leaf
  // promotes; with workers the frontier is spread across tasks, so at
  // least half the cells must have promoted.
  CHECK(rt.stats().promotions >
        static_cast<std::uint64_t>(z.usp_side * z.usp_side) / 2);
}

// The stop-the-world runtime must actually run whole-world collections
// under parallel allocation pressure and still produce the right
// answer (exercises the safepoint/park protocol).
PARMEM_TEST(stw_collects_under_parallel_load) {
  Sizes z = tiny_sizes();
  StwRuntime::Options o;
  o.workers = 4;
  o.gc_min_budget = std::size_t{96} << 10;
  StwRuntime rt(o);
  const std::int64_t ref = [&] {
    SeqRuntime seq;
    return bench_msort_pure(seq, z).checksum;
  }();
  for (int i = 0; i < 3; ++i) {
    CHECK_EQ(bench_msort_pure(rt, z).checksum, ref);
  }
  CHECK(rt.stats().gc_count > 0);
}

// StwRuntime allocates from one buffer per pool worker, not one heap
// per task: a 4,096-leaf fork tree whose leaves each allocate one
// 2-word object fits in each worker's doubling chunks (a heap per task
// opens a 4 KiB starter chunk per leaf, 16 MiB in all), and run() drops
// every buffer when it returns.
PARMEM_TEST(stw_fork_tree_allocates_from_worker_buffers) {
  using Ctx = StwRuntime::Ctx;
  auto tree = [](auto&& self, Ctx& c, int depth) -> std::int64_t {
    if (depth == 0) {
      Object* o = c.alloc(0, 2);
      Ctx::init_i64(o, 0, 1);
      return Ctx::read_i64_imm(o, 0);
    }
    auto [a, b] = StwRuntime::fork2(
        c, {}, [&](Ctx& cc) { return self(self, cc, depth - 1); },
        [&](Ctx& cc) { return self(self, cc, depth - 1); });
    return a + b;
  };
  for (unsigned w : {1u, 2u}) {
    StwRuntime rt(StwRuntime::Options{.workers = w});
    CHECK_EQ(rt.run([&](Ctx& c) { return tree(tree, c, 12); }), 4096);
    std::fprintf(stderr, "workers %u: peak %zu bytes\n", w, rt.peak_bytes());
    CHECK(rt.peak_bytes() < w * (std::size_t{512} << 10));
    CHECK_EQ(rt.live_bytes(), 0u);
  }
}

// Satellite regression: leaf heaps start on a small chunk (doubling up
// to 256 KiB), so a fine-grained fork tree of ~1k tiny leaves peaks far
// below the ~256 MB it cost when every leaf pinned a full chunk.
PARMEM_TEST(leaf_chunks_start_small) {
  HierRuntime rt(HierRuntime::Options{.workers = 2});
  auto tree_sum = [](auto&& self, HierRuntime::Ctx& c,
                     int depth) -> std::int64_t {
    if (depth == 0) {
      Object* o = c.alloc(0, 1);
      HierRuntime::Ctx::init_i64(o, 0, 1);
      return HierRuntime::Ctx::read_i64_imm(o, 0);
    }
    auto [a, b] = HierRuntime::fork2(
        c, {},
        [&](HierRuntime::Ctx& cc) { return self(self, cc, depth - 1); },
        [&](HierRuntime::Ctx& cc) { return self(self, cc, depth - 1); });
    return a + b;
  };
  std::int64_t total = rt.run([&](HierRuntime::Ctx& c) {
    return tree_sum(tree_sum, c, 10);  // 1024 leaves, ~32 B live each
  });
  CHECK_EQ(total, 1024);
  // Before the fix this peaked at 1024 leaves x 256 KiB = ~256 MB.
  CHECK(rt.peak_bytes() < std::size_t{32} << 20);

  // And a trivial run must not pin a full 256 KiB chunk either.
  HierRuntime rt2;
  rt2.run([](HierRuntime::Ctx& c) {
    Object* o = c.alloc(0, 1);
    HierRuntime::Ctx::init_i64(o, 0, 7);
    return 0;
  });
  CHECK(rt2.peak_bytes() <= std::size_t{64} << 10);
}

}  // namespace
