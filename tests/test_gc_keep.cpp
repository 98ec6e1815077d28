// Mark before evacuating (core/gc_leaf.hpp collect_due): a
// budget-triggered leaf collection that finds at least
// kKeepLiveFraction of its heap live keeps every object in place, and
// one that finds less evacuates. The mark pass must measure exactly
// what the evacuator (core/gc_parallel.hpp, a team of one here) would
// copy, whatever the graph holds.
#include <cstdint>
#include <vector>

#include "core/gc_leaf.hpp"
#include "core/hier_runtime.hpp"
#include "tests/test_util.hpp"

namespace parmem {
namespace {

using Ctx = HierRuntime::Ctx;

// One list cell: a link and a value, 32 bytes, so chunks pack densely.
constexpr std::size_t kCellBytes = Object::size_bytes(1, 1);

Object* push_cell(Ctx& c, const Local& head, std::int64_t v) {
  Object* o = c.alloc(1, 1);
  Ctx::init_i64(o, 0, v);
  Ctx::init_ptr(o, 0, head.get());
  head.set(o);
  return o;
}

// The root heap holds a promoted-into table, then grows a list that is
// all live until an allocation crosses the budget. That collection
// keeps the heap: no cell moves, nothing is copied, the estimate is the
// marked live set, the promoted-into bytes are not settled, and every
// header reads back as it was written.
PARMEM_TEST(gc_keep_dense_heap_stays_in_place) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.gc_min_budget = std::size_t{64} << 10;
  HierRuntime rt(opts);
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    Local table = frame.local(ctx.alloc(1, 0));
    Local head = frame.local(nullptr);
    HierRuntime::fork2(
        ctx, {table},
        [&table](Ctx& c) {
          Object* v = c.alloc(0, 1);
          Ctx::init_i64(v, 0, 7);
          c.write_ptr(table.get(), 0, v);  // promotes into the root heap
        },
        [](Ctx&) {});
    Heap* heap = ctx.leaf_heap();
    const std::size_t remote = heap->remote_bytes();
    CHECK(remote > 0);

    const Stats before = rt.stats();
    std::vector<std::uintptr_t> addrs;
    while (rt.stats().gc_count == before.gc_count) {
      Object* o = push_cell(ctx, head, static_cast<std::int64_t>(addrs.size()));
      addrs.push_back(reinterpret_cast<std::uintptr_t>(o));
    }
    const Stats after = rt.stats();
    CHECK_EQ(after.gc_count, before.gc_count + 1);
    CHECK_EQ(after.gc_kept, before.gc_kept + 1);
    CHECK_EQ(after.gc_bytes_copied, before.gc_bytes_copied);

    // Live at the collection: every cell but the one allocated after
    // it, the table, and the table's promoted value.
    const std::size_t live = (addrs.size() - 1) * kCellBytes +
                             Object::size_bytes(1, 0) +
                             Object::size_bytes(0, 1);
    CHECK_EQ(heap->live_estimate(), live);
    CHECK_EQ(heap->remote_bytes(), remote);

    std::size_t i = addrs.size();
    for (Object* o = head.get(); o != nullptr; o = Ctx::read_ptr(o, 0)) {
      CHECK(i > 0);
      --i;
      CHECK(reinterpret_cast<std::uintptr_t>(o) == addrs[i]);
      CHECK(o->fwd_relaxed() == nullptr);
      CHECK_EQ(o->meta_word(), (std::uint64_t{1} << 32) | 1u);
      CHECK_EQ(Ctx::read_i64_imm(o, 0), static_cast<std::int64_t>(i));
    }
    CHECK_EQ(i, 0u);
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(table.get(), 0), 0), 7);
    return 0;
  });
}

// Three of every four cells are garbage, so the budget-triggered
// collection marks a quarter of its heap live and evacuates, copying
// exactly the marked bytes.
PARMEM_TEST(gc_keep_sparse_heap_evacuates) {
  HierRuntime::Options opts;
  opts.gc_min_budget = std::size_t{64} << 10;
  HierRuntime rt(opts);
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    Local head = frame.local(nullptr);
    const Stats before = rt.stats();
    std::int64_t cells = 0;
    while (rt.stats().gc_count == before.gc_count) {
      for (int g = 0; g < 3; ++g) {
        Ctx::init_i64(ctx.alloc(0, 2), 0, g);
      }
      push_cell(ctx, head, cells++);
    }
    const Stats after = rt.stats();
    CHECK_EQ(after.gc_count, before.gc_count + 1);
    CHECK_EQ(after.gc_kept, before.gc_kept);
    // The collection ran inside the last four allocations, before the
    // last cell existed.
    const std::uint64_t copied = after.gc_bytes_copied - before.gc_bytes_copied;
    CHECK_EQ(copied, static_cast<std::uint64_t>(cells - 1) * kCellBytes);
    CHECK_EQ(ctx.leaf_heap()->live_estimate(), copied);
    std::int64_t n = 0;
    for (Object* o = head.get(); o != nullptr; o = Ctx::read_ptr(o, 0)) {
      CHECK_EQ(Ctx::read_i64_imm(o, 0), cells - 1 - n);
      ++n;
    }
    CHECK_EQ(n, cells);
    return 0;
  });
}

// A child heap holding cycles, a self-loop, a subgraph shared by two
// parents and a root, stale copies of promoted objects (reached from a
// root and from a field), pointers up into its ancestor's heap, a value
// published into an ancestor's Local, and garbage. Marking it twice
// measures the same live set, and evacuating it copies exactly that.
PARMEM_TEST(gc_keep_mark_matches_evacuation) {
  HierRuntime::Options opts;
  opts.workers = 2;
  HierRuntime rt(opts);
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    Local anc = frame.local(ctx.alloc(0, 1));
    Ctx::init_i64(anc.get(), 0, 5);
    Local published = frame.local(nullptr);
    HierRuntime::fork2(
        ctx, {box, anc, published},
        [&](Ctx& c) {
          RootFrame f(c);
          Local a = f.local(c.alloc(3, 1));
          Local b = f.local(c.alloc(2, 2));
          Local shared = f.local(c.alloc(1, 4));
          Local stale = f.local(c.alloc(1, 1));
          Local self = f.local(c.alloc(1, 0));
          c.write_ptr(a.get(), 0, b.get());
          c.write_ptr(b.get(), 0, a.get());  // cycle a <-> b
          c.write_ptr(a.get(), 1, shared.get());
          c.write_ptr(b.get(), 1, shared.get());
          c.write_ptr(shared.get(), 0, anc.get());  // points up
          c.write_ptr(a.get(), 2, stale.get());
          c.write_ptr(self.get(), 0, self.get());
          Object* tail = c.alloc(0, 3);  // promoted along with `stale`
          c.write_ptr(stale.get(), 0, tail);
          c.write_ptr(box.get(), 0, stale.get());  // promote; stale remains
          for (int i = 0; i < 100; ++i) {
            Ctx::init_i64(c.alloc(0, 2), 0, i);  // garbage
          }
          Object* pub = c.alloc(0, 2);
          published.set(c.publish(pub));

          const std::size_t expected =
              Object::size_bytes(3, 1) + Object::size_bytes(2, 2) +
              Object::size_bytes(1, 4) + Object::size_bytes(1, 0) +
              Object::size_bytes(0, 2);
          Heap* heap = c.leaf_heap();
          const std::size_t marked = leaf_gc_mark(heap, c.roots());
          CHECK_EQ(marked, expected);
          CHECK_EQ(leaf_gc_mark(heap, c.roots()), marked);
          const std::uint64_t copied0 = rt.stats().gc_bytes_copied;
          c.collect_now();
          CHECK_EQ(rt.stats().gc_bytes_copied - copied0, marked);

          // The graph survived the move.
          CHECK(Ctx::read_ptr(Ctx::read_ptr(a.get(), 0), 0) == a.get());
          CHECK(Ctx::read_ptr(a.get(), 1) == Ctx::read_ptr(b.get(), 1));
          CHECK(Ctx::read_ptr(self.get(), 0) == self.get());
          CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(shared.get(), 0), 0), 5);
          CHECK(Object::chase(stale.get()) ==
                Object::chase(Ctx::read_ptr(box.get(), 0)));
        },
        [](Ctx&) {});
    CHECK(published.get() != nullptr);
    return 0;
  });
}

}  // namespace
}  // namespace parmem
