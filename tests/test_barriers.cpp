// Read/write barrier semantics: immutable vs mutable paths on local
// objects, distant (ancestor-heap) access from a forked child, and the
// promoted-object barrier reading through stale references -- the
// BM_ReadMutablePromoted scenario -- in both promotion modes -- and
// the memory-ordering contract of the forwarding word itself.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/hier_runtime.hpp"
#include "core/object.hpp"
#include "tests/test_util.hpp"

namespace parmem {
namespace {

using Ctx = HierRuntime::Ctx;

PARMEM_TEST(barrier_local_read_write) {
  HierRuntime rt;
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(1, 2));
    Local p = frame.local(ctx.alloc(0, 1));
    Ctx::init_i64(o.get(), 0, 11);
    CHECK_EQ(Ctx::read_i64_imm(o.get(), 0), 11);
    CHECK_EQ(Ctx::read_i64_mut(o.get(), 0), 11);
    ctx.write_i64(o.get(), 1, 22);
    CHECK_EQ(Ctx::read_i64_mut(o.get(), 1), 22);
    CHECK_EQ(Ctx::read_i64_imm(o.get(), 1), 22);
    ctx.write_ptr(o.get(), 0, p.get());
    CHECK(Ctx::read_ptr(o.get(), 0) == p.get());
    ctx.write_ptr(o.get(), 0, nullptr);
    CHECK(Ctx::read_ptr(o.get(), 0) == nullptr);
    return 0;
  });
}

PARMEM_TEST(barrier_distant_ops_from_child) {
  HierRuntime::Options opts;
  opts.workers = 2;
  HierRuntime rt(opts);
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    Local obj = frame.local(ctx.alloc(1, 1));
    Local peer = frame.local(ctx.alloc(0, 1));
    Ctx::init_i64(obj.get(), 0, 5);
    Ctx::init_i64(peer.get(), 0, 99);

    HierRuntime::fork2(
        ctx, {obj, peer},
        [obj, peer](Ctx& c) {
          // Reads of the parent's object are plain.
          CHECK_EQ(Ctx::read_i64_imm(obj.get(), 0), 5);
          CHECK_EQ(c.read_i64_mut(obj.get(), 0), 5);
          // Non-pointer write to a distant object.
          c.write_i64(obj.get(), 0, 6);
          // Pointer write whose value lives at the same depth: takes
          // the single heap lock, promotes nothing.
          c.write_ptr(obj.get(), 0, peer.get());
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });

    CHECK_EQ(Ctx::read_i64_mut(obj.get(), 0), 6);
    CHECK(Ctx::read_ptr(obj.get(), 0) == peer.get());
    CHECK_EQ(rt.stats().promotions, 0u);
    return 0;
  });
}

void stale_reference_scenario(PromotionMode mode) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.promotion = mode;
  HierRuntime rt(opts);
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [box](Ctx& c) {
          RootFrame f(c);
          Local cell = f.local(c.alloc(0, 1));
          Ctx::init_i64(cell.get(), 0, 5);
          Object* stale = cell.get();
          c.write_ptr(box.get(), 0, cell.get());  // promotes the cell
          Local sref = f.local(stale);

          // The stale copy must keep forwarding to the master.
          CHECK(stale->fwd_acquire() != nullptr);
          CHECK_EQ(c.read_i64_mut(sref.get(), 0), 5);
          // Immutable reads through the stale copy still see the value
          // it was promoted with.
          CHECK_EQ(Ctx::read_i64_imm(sref.get(), 0), 5);

          // Writes through the stale reference land on the master...
          c.write_i64(sref.get(), 0, 42);
          Object* master = Ctx::read_ptr(box.get(), 0);
          CHECK(master != stale);
          CHECK_EQ(Ctx::read_i64_imm(master, 0), 42);
          // ...and reads through the stale reference see master writes.
          c.write_i64(master, 0, 43);
          CHECK_EQ(c.read_i64_mut(sref.get(), 0), 43);
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    CHECK_EQ(rt.stats().promotions, 1u);
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(box.get(), 0), 0), 43);
    return 0;
  });
}

PARMEM_TEST(barrier_stale_reference_coarse) {
  stale_reference_scenario(PromotionMode::kCoarseLocking);
}

PARMEM_TEST(barrier_stale_reference_fine) {
  stale_reference_scenario(PromotionMode::kFineGrained);
}

// The forwarding word's contract (core/object.hpp): chase reads it
// relaxed and reloads a non-null word with acquire, so a reader that
// reaches a master sees every word its installer wrote before the
// release store. A writer thread installs one master per round with
// the fine-grained protocol (claim_fwd -> copy -> set_fwd) while a
// reader spins on chase. The two threads share no other ordering: the
// round counter they pace each other with is relaxed. On x86 the
// checks pass under any order; under TSan a relaxed reload makes the
// reader's loads of the master a reported race.
PARMEM_TEST(object_chase_forwarding_synchronizes) {
  constexpr int kRounds = 2000;
  constexpr std::uint32_t kFields = 6;
  struct alignas(Object::kAlign) Storage {
    unsigned char bytes[Object::size_bytes(0, kFields)];
  };
  auto expected = [](int round, std::uint32_t i) {
    return std::int64_t{round} * kFields + i + 1;
  };
  std::vector<Storage> stale(kRounds);
  std::vector<Storage> masters(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    Object* o = reinterpret_cast<Object*>(&stale[r]);
    o->init_header(0, kFields);
    for (std::uint32_t i = 0; i < kFields; ++i) {
      o->set_scalar(i, expected(r, i));
    }
  }
  std::atomic<int> reader_round{-1};

  std::thread writer([&] {
    for (int r = 0; r < kRounds; ++r) {
      while (reader_round.load(std::memory_order_relaxed) < r) {
        std::this_thread::yield();
      }
      Object* o = reinterpret_cast<Object*>(&stale[r]);
      Object* m = reinterpret_cast<Object*>(&masters[r]);
      m->init_header(0, kFields);
      CHECK(o->claim_fwd());
      std::memcpy(m->scalars(), o->scalars(), 8u * kFields);
      o->set_fwd(m);
    }
  });
  std::thread reader([&] {
    for (int r = 0; r < kRounds; ++r) {
      Object* o = reinterpret_cast<Object*>(&stale[r]);
      reader_round.store(r, std::memory_order_relaxed);
      Object* seen = o;
      while ((seen = Object::chase(o)) == o) {
        // Unpromoted: the stale copy keeps its own fields.
        CHECK_EQ(seen->scalar(kFields - 1), expected(r, kFields - 1));
        std::this_thread::yield();
      }
      CHECK(seen == reinterpret_cast<Object*>(&masters[r]));
      CHECK_EQ(seen->nscalar(), kFields);
      for (std::uint32_t i = 0; i < kFields; ++i) {
        CHECK_EQ(seen->scalar(i), expected(r, i));
      }
    }
  });
  writer.join();
  reader.join();
}

}  // namespace
}  // namespace parmem
