// The leaf-GC trigger (Heap::live_estimate, Heap::join_children): a heap
// collects once its chunks reach growth x its live estimate, and a join
// carries the larger child's estimate up. Pins that a merged heap does
// not re-collect its children's survivors, that the copy volume of a
// fork-tree kernel stays a small multiple of its live set, and that the
// carried estimate keeps a fork tree's peak flat in its leaf count.
#include <algorithm>
#include <cstdint>

#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"
#include "tests/test_util.hpp"

namespace parmem {
namespace {

using Ctx = HierRuntime::Ctx;

// One ~1 KiB cell of a list.
constexpr std::uint32_t kCellScalars = 126;
constexpr std::size_t kCellBytes = Object::size_bytes(1, kCellScalars);

// A list of `cells` cells, head first; allocation may collect, so the
// list under construction stays rooted in `head`.
void build_list(Ctx& c, const Local& head, std::size_t cells) {
  for (std::size_t i = 0; i < cells; ++i) {
    Object* o = c.alloc(1, kCellScalars);
    Ctx::init_i64(o, 0, static_cast<std::int64_t>(i));
    Ctx::init_ptr(o, 0, head.get());
    head.set(o);
  }
}

void churn(Ctx& c, std::size_t cells) {
  for (std::size_t i = 0; i < cells; ++i) {
    Ctx::init_i64(c.alloc(0, kCellScalars), 0, static_cast<std::int64_t>(i));
  }
}

// Two children each build a list and collect with it live, so each
// records its list as survivors. The merged parent holds both lists
// (past gc_min_budget) but carries the larger estimate, one list, so
// its trigger is growth x one list and its next allocation does not
// collect. Under the sum of both estimates the assertion on the
// estimate fails; under a budget that a join resets, the count does.
// A second fork from the same parent then pins that a join adds the
// parent's own survivors, not its carried estimate.
PARMEM_TEST(gc_budget_carried_across_join) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.gc_min_budget = std::size_t{64} << 10;
  HierRuntime rt(opts);
  rt.run([&rt, &opts](Ctx& ctx) {
    RootFrame frame(ctx);
    Local la = frame.local(nullptr);
    Local lb = frame.local(nullptr);
    std::size_t est_a = 0;
    std::size_t est_b = 0;
    auto branch = [](const Local& out, std::size_t* est) {
      return [&out, est](Ctx& c) {
        RootFrame f(c);
        Local head = f.local(nullptr);
        build_list(c, head, 64);  // 64 KiB, the whole minimum budget
        c.collect_now();
        *est = c.leaf_heap()->live_estimate();
        out.set(c.publish(head.get()));
      };
    };
    // The root heap has allocated nothing, so its own survivors are 0
    // and its first allocation after the join takes the slow path.
    HierRuntime::fork2(ctx, {la, lb}, branch(la, &est_a), branch(lb, &est_b));
    CHECK_EQ(est_a, 64 * kCellBytes);
    CHECK_EQ(est_b, 64 * kCellBytes);
    Heap* parent = ctx.leaf_heap();
    CHECK(parent->chunk_bytes() >= 2 * 64 * kCellBytes);
    CHECK(parent->chunk_bytes() > opts.gc_min_budget);
    const bool stress = rt.options().gc_stress;
    if (!stress) {
      // GC stress collects the merged heap at the join itself, and so
      // records both lists; the carried estimate is the policy's.
      CHECK_EQ(parent->live_estimate(), std::max(est_a, est_b));
    }
    CHECK(parent->chunk_bytes() <
          gc_trigger_bytes(opts.gc_min_budget, opts.gc_growth_factor,
                           parent->live_estimate()));
    const std::uint64_t gcs = rt.stats().gc_count;
    Ctx::init_i64(ctx.alloc(0, 1), 0, 1);
    if (!stress) {  // stress also collects at every allocation slow path
      CHECK_EQ(rt.stats().gc_count, gcs);
    }
    // Both lists arrived whole.
    for (const Local* l : {&la, &lb}) {
      std::int64_t n = 0;
      for (Object* o = l->get(); o != nullptr; o = Ctx::read_ptr(o, 0)) {
        CHECK_EQ(Ctx::read_i64_imm(o, 0), 63 - n);
        ++n;
      }
      CHECK_EQ(n, 64);
    }
    // A second join carries only its own children's estimate on top of
    // the parent's survivors (still none): estimates of earlier joins'
    // children do not pile up in a heap that forks again and again.
    auto dropping = [](Ctx& c) {
      RootFrame f(c);
      Local head = f.local(nullptr);
      build_list(c, head, 16);
      c.collect_now();
    };
    HierRuntime::fork2(ctx, {la, lb}, dropping, dropping);
    if (!stress) {
      CHECK_EQ(parent->live_estimate(), 16 * kCellBytes);
    }
    return 0;
  });
}

// bench_map's kernel, rope_build then rope_map, on 2 workers: the bytes
// its collections copied, and its final live set (both ropes, measured
// by one more collection).
struct CopyVolume {
  std::uint64_t copied = 0;
  std::uint64_t live = 0;
};

CopyVolume rope_map_copy_volume(std::size_t min_budget, std::int64_t n,
                                std::int64_t grain) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.gc_min_budget = min_budget;
  HierRuntime rt(opts);
  CopyVolume v;
  rt.run([&](Ctx& c) {
    auto gen = [](std::int64_t i) {
      return static_cast<std::int64_t>(
          bench::wl::mix64(static_cast<std::uint64_t>(i)) & 0xFFFF);
    };
    RootFrame fr(c);
    Local in = fr.local(nullptr);
    Local out = fr.local(nullptr);
    in.set(bench::wl::rope_build<HierRuntime>(c, 0, n, grain, gen));
    out.set(bench::wl::rope_map<HierRuntime>(
        c, in, grain, [](std::int64_t x) { return x * 3 + 1; }));
    v.copied = rt.stats().gc_bytes_copied;
    c.collect_now();
    v.live = rt.stats().gc_bytes_copied - v.copied;
    CHECK_EQ(bench::wl::rope_count<Ctx>(out.get()), n);
    return 0;
  });
  std::fprintf(stderr, "copied %llu bytes for %llu live (%.2fx)\n",
               static_cast<unsigned long long>(v.copied),
               static_cast<unsigned long long>(v.live),
               static_cast<double>(v.copied) / static_cast<double>(v.live));
  CHECK(v.live >= 2 * 8 * static_cast<std::uint64_t>(n));
  return v;
}

// At a size where many fork levels pass a small gc_min_budget. With a
// budget each join reset to the minimum, every level re-collected the
// merged subtree, so every live byte was copied once per level (about
// six times here); carrying the estimate copies it about once per
// log2(growth) levels.
PARMEM_TEST(gc_budget_copy_volume_bounded) {
  const CopyVolume v = rope_map_copy_volume(std::size_t{64} << 10,
                                            std::int64_t{1} << 18, 2048);
  CHECK(v.copied <= 4 * v.live);
}

// Larger, so the merged second-level heaps come out mostly live. The
// join rule underestimates them on purpose (the larger child's
// estimate, not the sum), so each is collected again; marking first
// keeps them in place instead of copying them a second time (2.00x the
// live set when every such collection evacuates, 1.00x with the keep).
// At smaller sizes the last to-space chunk leaves those heaps only
// 0.50-0.59 live and nothing is kept.
PARMEM_TEST(gc_keep_copy_volume_near_live) {
  const CopyVolume v = rope_map_copy_volume(std::size_t{1} << 20,
                                            std::int64_t{1} << 22, 8192);
  CHECK(4 * v.copied <= 5 * v.live);
}

// A fork tree whose leaves each build a list, collect with it live, churn
// some garbage, and then drop everything; each internal node allocates
// once after its join. Every leaf records its list as survivors, but
// none of it is live after the leaf returns. Summed up the tree, those
// stale estimates would raise each merged heap's trigger with its leaf
// count, so no internal heap would ever collect and the peak would grow
// with the tree. Carrying the larger child's estimate keeps the peak
// flat: four times the leaves stays within 1.25x, and under growth x
// the most that is ever live plus a slack per worker. The slack is two
// leaves' worth of chunks: a leaf mid-collection holds its from-space
// (up to its trigger plus the chunk that crossed it) and a to-space
// chunk sized by the doubling schedule, and a freshly merged pair of
// leaves waits for its parent's collection.
//
// A run's peak depends on how many workers hold leaves at once: when the
// second worker starts late, the 64-leaf tree finishes with one worker
// at about half the two-worker peak. So each size's peak is the largest
// of kPeakRuns runs, which sees both workers busy unless every run
// starts one late. A sum-of-children rule grows the peak with the leaf
// count in every run, so it fails the ratio whatever the schedule.
constexpr std::size_t kKeepCells = 96;    // kept through the collection
constexpr std::size_t kChurnCells = 192;  // garbage before and after it

void dropping_tree(Ctx& c, int depth) {
  if (depth == 0) {
    RootFrame f(c);
    Local keep = f.local(nullptr);
    build_list(c, keep, kKeepCells);
    churn(c, kChurnCells);
    c.collect_now();
    churn(c, kChurnCells);
    return;  // drops the list
  }
  HierRuntime::fork2(
      c, {}, [depth](Ctx& cc) { dropping_tree(cc, depth - 1); },
      [depth](Ctx& cc) { dropping_tree(cc, depth - 1); });
  Ctx::init_i64(c.alloc(0, 1), 0, depth);
}

constexpr int kPeakRuns = 5;

std::size_t dropping_tree_peak(const HierRuntime::Options& opts, int depth) {
  std::size_t peak = 0;
  for (int run = 0; run < kPeakRuns; ++run) {
    HierRuntime rt(opts);
    rt.run([depth](Ctx& c) {
      dropping_tree(c, depth);
      return 0;
    });
    peak = std::max(peak, rt.peak_bytes());
  }
  return peak;
}

PARMEM_TEST(gc_budget_space_bound_flat_in_leaf_count) {
  HierRuntime::Options opts;
  opts.workers = 2;
  // Small, so each pending sibling heap on the current path (garbage
  // below its trigger, waiting for its join) adds little per level.
  opts.gc_min_budget = std::size_t{16} << 10;
  const std::size_t small = dropping_tree_peak(opts, 6);  // 64 leaves
  const std::size_t large = dropping_tree_peak(opts, 8);  // 256 leaves
  const std::size_t keep_bytes = kKeepCells * kCellBytes;
  const std::size_t max_live = opts.workers * keep_bytes;
  const std::size_t leaf_trigger = gc_trigger_bytes(
      opts.gc_min_budget, opts.gc_growth_factor, keep_bytes);
  const std::size_t slack = opts.workers * 2 * (leaf_trigger + kChunkBytes);
  const auto bound = static_cast<std::size_t>(
      opts.gc_growth_factor * static_cast<double>(max_live)) + slack;
  std::fprintf(stderr, "peak %zu bytes at 64 leaves, %zu at 256, bound %zu\n",
               small, large, bound);
  CHECK(static_cast<double>(large) <= 1.25 * static_cast<double>(small));
  CHECK(large <= bound);
}

}  // namespace
}  // namespace parmem
