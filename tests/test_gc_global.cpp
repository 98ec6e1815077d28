// Global-heap collection under the local-heap runtime
// (runtimes/localheap_runtime.hpp): a stopped-world copying cycle over
// the depth-0 promotion sink, rooted from every worker's frames plus
// local->global edges discovered by scanning the worker-local heaps.
// Covers forwarding-chase through a collected global heap, edge
// discovery (a local object as the only reference to a global
// master), team-size equivalence, the promotion-threshold trigger,
// and stats accounting.
#include <cstdint>

#include "runtimes/localheap_runtime.hpp"
#include "tests/test_util.hpp"

namespace parmem {
namespace {

using Ctx = LhRuntime::Ctx;

// Enables the safepoint/global-collection machinery without any
// automatic trigger, so tests drive cycles with collect_global_now().
LhRuntime::Options manual_global(unsigned workers = 1) {
  LhRuntime::Options o;
  o.workers = workers;
  o.gc_global_threshold = ~std::size_t{0};
  return o;
}

// A promoted object's local original keeps a forwarding word to its
// global master. Collecting the global heap relocates the master; the
// scan of the local heap must shorten the stale forwarding word, so a
// chase through the original raw local pointer still reaches the
// (moved) master, and writes through it are seen by rooted readers.
PARMEM_TEST(global_gc_forwarding_chase_through_collected_heap) {
  LhRuntime rt(manual_global());
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    Object* cell = ctx.alloc(0, 1);
    Ctx::init_i64(cell, 0, 42);
    Local box = frame.local(ctx.publish(cell));  // master now global
    CHECK_EQ(heap_of(box.get())->depth(), 0u);
    CHECK(Object::chase(cell) == box.get());
    ctx.collect_global_now();
    // The stale local pointer still chases to the relocated master...
    CHECK_EQ(Ctx::read_i64_mut(cell, 0), 42);
    CHECK(Object::chase(cell) == box.get());
    // ...and writes through it hit the same master the root sees.
    Ctx::write_i64(cell, 0, 43);
    CHECK_EQ(Ctx::read_i64_mut(box.get(), 0), 43);
    return 0;
  });
}

// Local->global edge discovery: a field of a LOCAL object is the only
// reference to a global master. The collection must find it by
// scanning the local heap, keep the master alive, and rewrite the
// field -- while actually reclaiming the global garbage around it.
PARMEM_TEST(global_gc_local_edge_keeps_master_alive) {
  LhRuntime rt(manual_global());
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    // The only root is a LOCAL wrapper; its pointer field will hold
    // the global master.
    Local wrap = frame.local(ctx.alloc(1, 0));
    {
      Object* cell = ctx.alloc(0, 1);
      Ctx::init_i64(cell, 0, 4242);
      Object* master = ctx.publish(cell);
      CHECK_EQ(heap_of(master)->depth(), 0u);
      ctx.write_ptr(wrap.get(), 0, master);  // local -> global edge
    }
    CHECK_EQ(heap_of(wrap.get())->depth(), 1u);  // wrapper stayed local
    // Global garbage: promote junk and drop every reference to it.
    for (int i = 0; i < 64; ++i) {
      Object* junk = ctx.alloc(0, 15);
      Ctx::init_i64(junk, 0, i);
      (void)ctx.publish(junk);
    }
    // Kill the stale local originals first: their forwarding words
    // would (correctly) keep the dead masters alive.
    ctx.collect_now();
    Stats before = rt.stats();
    ctx.collect_global_now();
    Stats d = rt.stats() - before;
    CHECK_EQ(d.global_gc_count, 1u);
    // Only the one master survived, not the 64 junk payloads.
    CHECK_EQ(d.global_gc_bytes, Object::size_bytes(0, 1));
    Object* master = Ctx::read_ptr(wrap.get(), 0);
    CHECK_EQ(heap_of(master)->depth(), 0u);
    CHECK_EQ(Ctx::read_i64_mut(master, 0), 4242);
    return 0;
  });
}

// Stats accounting: one forced global collection, billed as both a
// collection and a global collection, with bytes-copied exactly the
// live set of the global heap (the promoted box plus its cells).
PARMEM_TEST(global_gc_stats_match_live_set) {
  constexpr std::uint32_t kCells = 8;
  LhRuntime rt(manual_global());
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(kCells, 0));
    box.set(ctx.publish(box.get()));  // the sink: a global array
    for (std::uint32_t i = 0; i < kCells; ++i) {
      Object* cell = ctx.alloc(0, 1);
      Ctx::init_i64(cell, 0, i + 1);
      ctx.write_ptr(box.get(), i, cell);  // promotes each cell
    }
    ctx.collect_now();  // drop stale local originals (forwarding words)
    Stats before = rt.stats();
    ctx.collect_global_now();
    Stats d = rt.stats() - before;
    CHECK_EQ(d.global_gc_count, 1u);
    CHECK_EQ(d.gc_count, 1u);  // a global collection IS a collection
    const std::uint64_t live =
        Object::size_bytes(kCells, 0) + kCells * Object::size_bytes(0, 1);
    CHECK_EQ(d.global_gc_bytes, live);
    CHECK_EQ(d.gc_bytes_copied, live);
    for (std::uint32_t i = 0; i < kCells; ++i) {
      CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(box.get(), i), 0), i + 1);
    }
    return 0;
  });
}

// The promotion-threshold policy: with a small gc_global_threshold,
// promotions into the global heap ring the doorbell and the next
// safepoint anyone reaches (allocation slow path, fork2 boundary)
// collects -- no manual collect_global_now involved.
PARMEM_TEST(global_gc_threshold_triggers_at_safepoints) {
  constexpr std::uint32_t kSlots = 64;
  LhRuntime::Options opts;
  opts.workers = 2;
  opts.gc_global_threshold = 1u << 10;
  LhRuntime rt(opts);
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(kSlots, 0));
    // Each branch owns a disjoint half of the sink's slots (racing the
    // same slot would be a language-level program race). fork2's
    // spawn-time promotion makes `box` global before the branches run.
    auto branch = [box](std::uint32_t base) {
      return [box, base](Ctx& c) {
        for (std::uint32_t i = base; i < base + kSlots / 2; ++i) {
          Object* cell = c.alloc(0, 15);  // 128-byte promoted payloads
          Ctx::init_i64(cell, 0, i);
          c.write_ptr(box.get(), i, cell);
          // Churn allocations to reach the chunk-overflow safepoint.
          for (int j = 0; j < 64; ++j) {
            Object* junk = c.alloc(0, 15);
            Ctx::init_i64(junk, 0, j);
          }
        }
        return std::int64_t{0};
      };
    };
    LhRuntime::fork2(ctx, {box}, branch(0), branch(kSlots / 2));
    CHECK(rt.stats().global_gc_count > 0);
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(box.get(), i), 0), i);
    }
    return 0;
  });
}

// Team equivalence: a forked workload that publishes from every leaf,
// run with one worker (the driver evacuates alone, a team of one -- no
// one is parked to recruit) and with four (parked mutators join the
// evacuation team), must produce identical sums. GC-stress maximises
// the number of cycles the join windows see.
PARMEM_TEST(global_gc_team_sizes_equivalent) {
  struct Rec {
    static std::int64_t go(Ctx& c, int depth) {
      if (depth == 0) {
        RootFrame f(c);
        Local keep = f.local(nullptr);
        {
          Object* cell = c.alloc(0, 1);
          Ctx::init_i64(cell, 0, 1);
          keep.set(c.publish(cell));
        }
        for (int i = 0; i < 400; ++i) {  // churn across safepoints
          Object* junk = c.alloc(1, 2);
          Ctx::init_i64(junk, 0, i);
        }
        return Ctx::read_i64_mut(keep.get(), 0);
      }
      auto [a, b] = LhRuntime::fork2(
          c, {}, [depth](Ctx& cc) { return Rec::go(cc, depth - 1); },
          [depth](Ctx& cc) { return Rec::go(cc, depth - 1); });
      return a + b;
    }
  };
  for (unsigned workers : {1u, 4u}) {
    LhRuntime::Options opts;
    opts.workers = workers;
    opts.gc_global_threshold = 1u << 10;
    opts.gc_stress = true;
    LhRuntime rt(opts);
    std::int64_t sum = rt.run([](Ctx& ctx) { return Rec::go(ctx, 5); });
    CHECK_EQ(sum, 32);
    CHECK(rt.stats().global_gc_count > 0);
  }
}

}  // namespace
}  // namespace parmem
