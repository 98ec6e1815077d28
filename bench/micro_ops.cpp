// Google-benchmark microbenchmarks of the individual runtime
// operations: allocation, the read/write fast paths, the mutable-access
// barrier on promoted objects, and fork2 overhead. Complements
// fig08_op_costs with statistically managed timing.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "bench_common/workloads.hpp"
#include "core/deque.hpp"
#include "core/hier_runtime.hpp"
#include "core/sched.hpp"

namespace parmem {
namespace {

using Ctx = HierRuntime::Ctx;

void BM_Alloc2Fields(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(ctx.alloc(0, 2));
    }
    return 0;
  });
}
BENCHMARK(BM_Alloc2Fields);

void BM_ReadImmutable(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(0, 2));
    Ctx::init_i64(o.get(), 0, 42);
    for (auto _ : state) {
      benchmark::DoNotOptimize(Ctx::read_i64_imm(o.get(), 0));
    }
    return 0;
  });
}
BENCHMARK(BM_ReadImmutable);

void BM_ReadMutableLocal(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(0, 2));
    ctx.write_i64(o.get(), 0, 42);
    for (auto _ : state) {
      benchmark::DoNotOptimize(ctx.read_i64_mut(o.get(), 0));
    }
    return 0;
  });
}
BENCHMARK(BM_ReadMutableLocal);

void BM_WriteNonptrLocal(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(0, 2));
    std::int64_t i = 0;
    for (auto _ : state) {
      ctx.write_i64(o.get(), 0, ++i);
    }
    return 0;
  });
}
BENCHMARK(BM_WriteNonptrLocal);

// The two rows above time one access per iteration, which is the same
// load of the forwarding word under any memory order. This row runs
// serve's dedup probe loop instead: clear one 512-slot table through
// write_i64, then insert a value stream with linear probing through
// read_i64_mut/write_i64, the table bounds held in a closure as the
// serve session holds them. How the compiler lays out the blocks
// around each forwarding check shows up here.
void BM_ReadMutableScan(benchmark::State& state) {
  constexpr std::int64_t kSlots = 512;
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local table = frame.local(ctx.alloc(0, kSlots));
    const std::int64_t region = kSlots;
    const std::int64_t n = kSlots / 2;
    auto insert = [&table, region, n](std::uint64_t s) {
      Object* to = table.get();
      for (std::int64_t j = 0; j < region; ++j) {
        Ctx::write_i64(to, static_cast<std::uint32_t>(j), 0);
      }
      std::uint64_t uniques = 0;
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t v =
            static_cast<std::int64_t>(
                bench::wl::mix64(s + static_cast<std::uint64_t>(i)) %
                static_cast<std::uint64_t>(n / 2 + 1)) +
            1;
        std::int64_t j = static_cast<std::int64_t>(
            bench::wl::mix64(static_cast<std::uint64_t>(v) ^ s) %
            static_cast<std::uint64_t>(region));
        for (std::int64_t probes = 0; probes < region; ++probes) {
          const std::int64_t slot =
              Ctx::read_i64_mut(to, static_cast<std::uint32_t>(j));
          if (slot == 0) {
            Ctx::write_i64(to, static_cast<std::uint32_t>(j), v);
            ++uniques;
            break;
          }
          if (slot == v) {
            break;  // duplicate
          }
          j = j + 1 < region ? j + 1 : 0;
        }
      }
      return uniques;
    };
    std::uint64_t s = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(insert(++s));
    }
    return 0;
  });
}
BENCHMARK(BM_ReadMutableScan);

void BM_WritePtrLocalFastPath(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(1, 0));
    Local p = frame.local(ctx.alloc(0, 1));
    for (auto _ : state) {
      ctx.write_ptr(o.get(), 0, p.get());
    }
    return 0;
  });
}
BENCHMARK(BM_WritePtrLocalFastPath);

void BM_ReadMutablePromoted(benchmark::State& state) {
  HierRuntime rt({.workers = 2});
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [&state, box](Ctx& c) {
          RootFrame f(c);
          Local cell = f.local(c.alloc(0, 1));
          Ctx::init_i64(cell.get(), 0, 5);
          Object* stale = cell.get();
          c.write_ptr(box.get(), 0, cell.get());  // promote; keep stale
          Local sref = f.local(stale);
          for (auto _ : state) {
            benchmark::DoNotOptimize(c.read_i64_mut(sref.get(), 0));
          }
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });
}
BENCHMARK(BM_ReadMutablePromoted);

void BM_Fork2ScalarOverhead(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    for (auto _ : state) {
      auto [a, b] = HierRuntime::fork2(
          ctx, {}, [](Ctx&) { return std::int64_t{1}; },
          [](Ctx&) { return std::int64_t{2}; });
      benchmark::DoNotOptimize(a + b);
    }
    return 0;
  });
}
BENCHMARK(BM_Fork2ScalarOverhead);

void BM_PromoteSmallObject(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [&state, box](Ctx& c) {
          for (auto _ : state) {
            Object* fresh = c.alloc(0, 1);
            Ctx::init_i64(fresh, 0, 1);
            c.write_ptr(box.get(), 0, fresh);  // promotes one object
          }
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });
}
BENCHMARK(BM_PromoteSmallObject);

// --- scheduler rows --------------------------------------------------------
// fork2_throughput is the tentpole metric of the lock-free scheduler:
// forks/second through full binary fork trees with a second worker
// present. That second worker is the point: an idle thief must cost
// the fork-executing owner nothing -- with Chase-Lev the owner's
// push+pop never blocks and the parked thief never touches the
// owner's line. steal_latency measures the push ->
// executed-on-another-worker round trip, and the deque row the raw
// deque cycle.

std::int64_t fork_tree_count(Ctx& ctx, int depth) {
  if (depth == 0) {
    return 1;
  }
  auto [a, b] = HierRuntime::fork2(
      ctx, {}, [&](Ctx& c) { return fork_tree_count(c, depth - 1); },
      [&](Ctx& c) { return fork_tree_count(c, depth - 1); });
  return a + b;
}

void BM_Fork2Throughput(benchmark::State& state) {
  constexpr int kDepth = 8;  // 255 forks per iteration
  HierRuntime rt({.workers = 2});
  rt.run([&state](Ctx& ctx) {
    std::int64_t leaves = 0;
    for (auto _ : state) {
      leaves += fork_tree_count(ctx, kDepth);
    }
    benchmark::DoNotOptimize(leaves);
    return 0;
  });
  state.SetItemsProcessed(state.iterations() * ((1 << kDepth) - 1));
}
BENCHMARK(BM_Fork2Throughput);

struct PingTask : WorkStealPool::Task {
  std::atomic<bool> done{false};
  void execute() override { done.store(true, std::memory_order_release); }
};

void BM_StealLatency(benchmark::State& state) {
  WorkStealPool pool(2);
  WorkStealPool::Scope scope(&pool);
  for (auto _ : state) {
    PingTask t;
    pool.push(&t);
    // Wait without helping: the task completes only when the other
    // worker steals it, so the measured interval is push -> stolen ->
    // executed. The yield matters on boxes with fewer cores than
    // workers -- without it the waiter burns its whole quantum before
    // the thief can run at all.
    while (!t.done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}
BENCHMARK(BM_StealLatency);

void BM_DequePushPop(benchmark::State& state) {
  ChaseLevDeque<PingTask> dq;
  PingTask t;
  for (auto _ : state) {
    dq.push(&t);
    benchmark::DoNotOptimize(dq.pop());
  }
}
BENCHMARK(BM_DequePushPop);

// --- fine-grained promotion mode (Section 5 future work) -------------------
// The per-op costs of the claim-based mode, for comparison with the
// coarse rows above: the local fast paths are identical instructions,
// the promotion swaps path locks for one CAS + a spinlocked bump.

HierRuntime::Options fine_opts(unsigned workers = 1) {
  HierRuntime::Options o;
  o.workers = workers;
  o.promotion = PromotionMode::kFineGrained;
  return o;
}

void BM_WriteNonptrLocalFine(benchmark::State& state) {
  HierRuntime rt(fine_opts());
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(0, 2));
    std::int64_t i = 0;
    for (auto _ : state) {
      ctx.write_i64(o.get(), 0, ++i);
    }
    return 0;
  });
}
BENCHMARK(BM_WriteNonptrLocalFine);

void BM_ReadMutablePromotedFine(benchmark::State& state) {
  HierRuntime rt(fine_opts(2));
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [&state, box](Ctx& c) {
          RootFrame f(c);
          Local cell = f.local(c.alloc(0, 1));
          Ctx::init_i64(cell.get(), 0, 5);
          Object* stale = cell.get();
          c.write_ptr(box.get(), 0, cell.get());
          Local sref = f.local(stale);
          for (auto _ : state) {
            benchmark::DoNotOptimize(c.read_i64_mut(sref.get(), 0));
          }
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });
}
BENCHMARK(BM_ReadMutablePromotedFine);

void BM_PromoteSmallObjectFine(benchmark::State& state) {
  HierRuntime rt(fine_opts());
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [&state, box](Ctx& c) {
          for (auto _ : state) {
            Object* fresh = c.alloc(0, 1);
            Ctx::init_i64(fresh, 0, 1);
            c.write_ptr(box.get(), 0, fresh);
          }
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });
}
BENCHMARK(BM_PromoteSmallObjectFine);

}  // namespace
}  // namespace parmem

BENCHMARK_MAIN();
