// Scheduler-layer tests: Chase-Lev deque semantics and torture, the
// push-vs-park wakeup protocol, the safepoint gate's StopGuard and
// registry, oversubscribed pools (threads > cores, the contended-steal
// regime the 1-core CI box can actually produce), sharded-stats
// exactness, and the ChunkPool's size-class caches and slot regions.
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "bench_common/workloads.hpp"
#include "core/deque.hpp"
#include "core/heap.hpp"
#include "core/hier_runtime.hpp"
#include "core/sched.hpp"
#include "runtimes/localheap_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"
#include "tests/test_util.hpp"

namespace {

using namespace parmem;
using namespace parmem::bench;

struct Item {
  int id = 0;
  std::atomic<int> takes{0};
};

// Single-threaded semantics: owner end is LIFO, thief end is FIFO,
// empty pops/steals return null and leave the deque usable.
PARMEM_TEST(deque_lifo_fifo_semantics) {
  ChaseLevDeque<Item> dq(4);
  CHECK(dq.pop() == nullptr);
  CHECK(dq.steal() == nullptr);

  Item items[6];
  for (int i = 0; i < 6; ++i) {
    items[i].id = i;
    dq.push(&items[i]);
  }
  // Thief end takes the oldest.
  CHECK_EQ(dq.steal()->id, 0);
  CHECK_EQ(dq.steal()->id, 1);
  // Owner end takes the newest.
  CHECK_EQ(dq.pop()->id, 5);
  CHECK_EQ(dq.pop()->id, 4);
  CHECK_EQ(dq.steal()->id, 2);
  CHECK_EQ(dq.pop()->id, 3);
  CHECK(dq.pop() == nullptr);
  CHECK(dq.steal() == nullptr);
  // Still usable after draining.
  dq.push(&items[0]);
  CHECK_EQ(dq.pop()->id, 0);
}

// Index wraparound (many push/pop cycles around a tiny ring) and ring
// growth (pushes outrunning takes), including growth of a wrapped
// window.
PARMEM_TEST(deque_wraparound_and_growth) {
  ChaseLevDeque<Item> dq(2);
  CHECK_EQ(dq.capacity(), 2u);

  Item a, b;
  // Wrap the indices far past the initial capacity without growing.
  for (int i = 0; i < 1000; ++i) {
    dq.push(&a);
    dq.push(&b);
    CHECK(dq.pop() == &b);
    CHECK(dq.steal() == &a);
  }
  CHECK_EQ(dq.capacity(), 2u);

  // Now force growth from a wrapped position: the live window spans
  // the ring seam when the third push arrives.
  std::vector<Item> items(300);
  for (int i = 0; i < 300; ++i) {
    items[i].id = i;
    dq.push(&items[i]);
  }
  CHECK(dq.capacity() >= 300u);
  // Everything survives the copies, in order, from both ends.
  for (int i = 0; i < 150; ++i) {
    CHECK_EQ(dq.steal()->id, i);
  }
  for (int i = 299; i >= 150; --i) {
    CHECK_EQ(dq.pop()->id, i);
  }
  CHECK(dq.pop() == nullptr);
}

// Torture: one owner doing bursty push/pop against several thieves,
// over a deliberately tiny initial ring so growth and wraparound
// happen live under contention. Every item must be taken exactly
// once (the pop-vs-steal Dekker race never duplicates or drops), and
// the deque must end empty. This is the TSan row's main course.
PARMEM_TEST(deque_torture_multithief) {
  constexpr int kItems = 20000;
  constexpr unsigned kThieves = 3;
  std::vector<Item> items(kItems);
  for (int i = 0; i < kItems; ++i) {
    items[i].id = i;
  }

  ChaseLevDeque<Item> dq(2);
  std::atomic<bool> stop{false};
  std::atomic<int> taken{0};

  std::vector<std::thread> thieves;
  for (unsigned t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (Item* it = dq.steal()) {
          it->takes.fetch_add(1, std::memory_order_relaxed);
          taken.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  std::uint64_t rng = 0x2545F4914F6CDD1Dull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  int pushed = 0;
  while (pushed < kItems) {
    for (std::uint64_t burst = 1 + next() % 8; burst > 0 && pushed < kItems;
         --burst) {
      dq.push(&items[pushed++]);
    }
    for (std::uint64_t pops = next() % 4; pops > 0; --pops) {
      if (Item* it = dq.pop()) {
        it->takes.fetch_add(1, std::memory_order_relaxed);
        taken.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Owner drain: a null pop means the deque is empty (a lost
  // last-element race means a thief has it).
  while (Item* it = dq.pop()) {
    it->takes.fetch_add(1, std::memory_order_relaxed);
    taken.fetch_add(1, std::memory_order_relaxed);
  }
  // Thieves already hold any stragglers; wait for their tallies.
  while (taken.load(std::memory_order_acquire) < kItems) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : thieves) {
    t.join();
  }

  CHECK_EQ(taken.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    CHECK_EQ(items[i].takes.load(), 1);
  }
  CHECK(dq.pop() == nullptr);
  CHECK(dq.steal() == nullptr);
}

struct FlagTask : WorkStealPool::Task {
  std::atomic<bool> done{false};
  void execute() override { done.store(true, std::memory_order_release); }
};

// Wakeup liveness: push single tasks into an otherwise-idle pool, with
// pauses long enough that the workers have parked on the condvar, and
// do NOT help from the pushing thread -- each task completes only if
// the push-side wakeup actually reaches a parked worker. With a lost
// wakeup this degrades to the parker's safety-net timeout per round
// and the watchdog/ctest timeout catches it.
PARMEM_TEST(sched_wakeup_liveness) {
  WorkStealPool pool(4);
  WorkStealPool::Scope scope(&pool);
  for (int round = 0; round < 100; ++round) {
    if (round % 10 == 0) {
      // Let the workers spin down and park.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FlagTask t;
    pool.push(&t);
    while (!t.done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

// Oversubscription: more workers than the box has cores, so steals,
// preemption mid-pop, and parked-thief wakeups all actually happen.
// Checksums must match the sequential reference on both a pure
// fork-heavy kernel and an imperative promoting one.
PARMEM_TEST(sched_oversubscribed_pool) {
  Sizes z;
  z.scale = 0.001;
  z.fib_n = 18;
  z.usp_side = 10;
  unsigned cores = std::thread::hardware_concurrency();
  unsigned workers = (cores == 0 ? 1 : cores) * 2 + 2;  // always > cores

  SeqRuntime seq;
  const std::int64_t fib_ref = bench_fib(seq, z).checksum;
  const std::int64_t usp_ref = bench_usp_tree(seq, z).checksum;

  {
    HierRuntime rt(HierRuntime::Options{.workers = workers});
    CHECK_EQ(bench_fib(rt, z).checksum, fib_ref);
    CHECK_EQ(bench_usp_tree(rt, z).checksum, usp_ref);
  }
  {
    StwRuntime rt(StwRuntime::Options{.workers = workers});
    CHECK_EQ(bench_fib(rt, z).checksum, fib_ref);
    CHECK_EQ(bench_usp_tree(rt, z).checksum, usp_ref);
  }
  {
    LhRuntime rt(LhRuntime::Options{.workers = workers});
    CHECK_EQ(bench_fib(rt, z).checksum, fib_ref);
    CHECK_EQ(bench_usp_tree(rt, z).checksum, usp_ref);
  }
}

template <class RT>
int fork_tree(typename RT::Ctx& c, int depth) {
  using Ctx = typename RT::Ctx;
  if (depth == 0) {
    return 1;
  }
  auto [a, b] = RT::fork2(
      c, {}, [&](Ctx& cc) { return fork_tree<RT>(cc, depth - 1); },
      [&](Ctx& cc) { return fork_tree<RT>(cc, depth - 1); });
  return a + b;
}

// A stop whose body throws must still end: the guard releases the
// gate during unwinding, so the world runs again and a task blocked
// entering the running set gets in. The won stop bills its pause.
PARMEM_TEST(sched_stop_guard_ends_stop_on_throw) {
  SafepointGate gate(2);
  StatsCell stats;
  std::atomic<bool> entered{false};
  std::thread other;
  gate.activate(0);
  try {
    StopGuard stop(gate, stats);
    CHECK(stop);
    CHECK(gate.pending());
    other = std::thread([&] {
      gate.activate(1);  // blocks until the stop ends
      entered.store(true, std::memory_order_release);
      gate.deactivate(1);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    CHECK(!entered.load(std::memory_order_acquire));
    throw std::runtime_error("collector failed");
  } catch (const std::runtime_error&) {
  }
  CHECK(!gate.pending());
  other.join();
  CHECK(entered.load(std::memory_order_acquire));
  CHECK(stats.gc_pause_ns.load() > 0);
  gate.deactivate(0);
}

unsigned live_gates() {
  unsigned n = 0;
  GateRegistry::for_each([&n](SafepointGate*) { ++n; });
  return n;
}

// StwRuntime stops the world through a SafepointGate like every other
// runtime, so the test watchdog finds and dumps its gate on a hang.
PARMEM_TEST(sched_stw_gate_visible_to_watchdog) {
  const unsigned before = live_gates();
  {
    StwRuntime::Options o;
    o.workers = 2;
    StwRuntime rt(o);
    CHECK_EQ(live_gates(), before + 1);
  }
  CHECK_EQ(live_gates(), before);
}

// Sharded stats must aggregate to EXACTLY what the old single
// StatsCell recorded: a full binary fork tree of depth d performs
// 2^d - 1 fork2 calls regardless of worker count or steal schedule,
// so snapshot().forks is deterministic across all four runtimes --
// and doubles exactly when the same runtime instance runs it twice
// (counters from different workers' shards summing on read).
PARMEM_TEST(stats_shard_aggregation_exact) {
  constexpr int kDepth = 6;
  constexpr std::uint64_t kForks = (1u << kDepth) - 1;  // 63
  constexpr int kLeaves = 1 << kDepth;

  auto check = [&](auto& rt) {
    using RT = std::remove_reference_t<decltype(rt)>;
    int leaves =
        rt.run([&](typename RT::Ctx& c) { return fork_tree<RT>(c, kDepth); });
    CHECK_EQ(leaves, kLeaves);
    CHECK_EQ(rt.stats().forks, kForks);
    leaves =
        rt.run([&](typename RT::Ctx& c) { return fork_tree<RT>(c, kDepth); });
    CHECK_EQ(leaves, kLeaves);
    CHECK_EQ(rt.stats().forks, 2 * kForks);
  };

  {
    SeqRuntime rt;
    check(rt);
  }
  for (unsigned w : {1u, 3u}) {
    {
      StwRuntime rt(StwRuntime::Options{.workers = w});
      check(rt);
    }
    {
      LhRuntime rt(LhRuntime::Options{.workers = w});
      check(rt);
    }
    {
      HierRuntime rt(HierRuntime::Options{.workers = w});
      check(rt);
    }
  }
}

// True when acquire() throws OutOfMemory.
bool acquire_throws(ChunkPool& pool, std::size_t bytes) {
  try {
    (void)pool.acquire(bytes - kChunkHeaderBytes, bytes);
  } catch (const OutOfMemory&) {
    return true;
  }
  return false;
}

// Every size class, starters and full size alike, must recycle through
// its free list with exact accounting:
// pooled chunks are not live, reuse hands back the same chunks, a
// budget hit throws before anything is popped, and the chunk_alloc
// failpoint fires only when a fresh slot is carved (so the OOM fault
// sweeps still aim at memory taken from the OS).
PARMEM_TEST(chunkpool_sharded_cache_accounting) {
  // Many chunks per class at once, released and reused as a batch.
  constexpr std::size_t kHeld = 12;
  for (std::size_t bytes = kMinChunkBytes; bytes <= kChunkBytes; bytes <<= 1) {
    ChunkPool pool;
    {
      failpoint::ScopedFailpoints fp("chunk_alloc=every(1)");
      CHECK(acquire_throws(pool, bytes));  // empty pool: a fresh slot
    }
    CHECK_EQ(pool.live_bytes(), 0u);

    std::set<Chunk*> carved;
    for (std::size_t i = 0; i < kHeld; ++i) {
      Chunk* c = pool.acquire(bytes - kChunkHeaderBytes, bytes);
      CHECK_EQ(c->bytes, bytes);
      CHECK(reinterpret_cast<std::uintptr_t>(c) % kChunkBytes == 0);
      carved.insert(c);
    }
    CHECK_EQ(carved.size(), kHeld);
    CHECK_EQ(pool.live_bytes(), kHeld * bytes);
    for (Chunk* c : carved) {
      pool.release(c);
#if defined(PARMEM_ASAN)
      // Pooled payloads are poisoned: a use after release reports.
      CHECK(__asan_address_is_poisoned(c->data()));
      CHECK(__asan_address_is_poisoned(c->data_limit() - 1));
#endif
    }
    CHECK_EQ(pool.live_bytes(), 0u);

    // Reuse carves nothing, so an every-hit failpoint stays silent, and
    // hands back exactly the released chunks.
    std::set<Chunk*> reused;
    {
      failpoint::ScopedFailpoints fp("chunk_alloc=every(1)");
      for (std::size_t i = 0; i < kHeld; ++i) {
        reused.insert(pool.acquire(bytes - kChunkHeaderBytes, bytes));
        CHECK_EQ(pool.live_bytes(), (i + 1) * bytes);
      }
    }
    CHECK(reused == carved);
#if defined(PARMEM_ASAN)
    for (Chunk* c : reused) {
      CHECK(__asan_region_is_poisoned(c->data(), bytes - kChunkHeaderBytes) ==
            nullptr);
    }
#endif
    for (Chunk* c : reused) {
      pool.release(c);
    }
    CHECK_EQ(pool.live_bytes(), 0u);

    // The budget is checked before the pop: a refused acquire leaves
    // every pooled chunk in place for the next one.
    pool.set_budget(bytes);
    Chunk* c = pool.acquire(bytes - kChunkHeaderBytes, bytes);
    CHECK(carved.count(c) == 1);
    CHECK(acquire_throws(pool, bytes));
    CHECK_EQ(pool.live_bytes(), bytes);
    pool.set_budget(0);
    std::set<Chunk*> rest;
    {
      failpoint::ScopedFailpoints fp("chunk_alloc=every(1)");
      for (std::size_t i = 1; i < kHeld; ++i) {
        rest.insert(pool.acquire(bytes - kChunkHeaderBytes, bytes));
      }
    }
    CHECK_EQ(rest.size(), kHeld - 1);
    CHECK(rest.count(c) == 0);
    CHECK_EQ(pool.live_bytes(), kHeld * bytes);
    pool.release(c);
    for (Chunk* r : rest) {
      pool.release(r);
    }
    CHECK_EQ(pool.live_bytes(), 0u);
  }
}

// Resident pages in [p, p + bytes); p page-aligned.
std::size_t resident_pages(const void* p, std::size_t bytes) {
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((bytes + page - 1) / page);
  CHECK_EQ(::mincore(const_cast<void*>(p), bytes, vec.data()), 0);
  std::size_t n = 0;
  for (unsigned char v : vec) {
    n += v & 1;
  }
  return n;
}

// A miss in one class takes a free slot of another class before
// carving, giving back the pages past its new size; trim() returns the
// pages of surplus free slots and hands the slots out again later.
PARMEM_TEST(chunkpool_cross_class_reuse_and_trim) {
  constexpr std::size_t kHeld = 16;
  ChunkPool pool;
  std::set<Chunk*> full;
  for (std::size_t i = 0; i < kHeld; ++i) {
    Chunk* c = pool.acquire(kChunkPayload);
    std::memset(c->data(), 0xab, kChunkPayload);
    full.insert(c);
  }
  for (Chunk* c : full) {
    pool.release(c);
  }
  std::size_t resident = 0;
  for (Chunk* c : full) {
    resident += resident_pages(c, kChunkBytes);
  }
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  CHECK_EQ(resident, kHeld * (kChunkBytes / page));

  {
    // The starter class is empty; a pooled full-size slot is reused.
    failpoint::ScopedFailpoints fp("chunk_alloc=every(1)");
    Chunk* s = pool.acquire(64, kMinChunkBytes);
    CHECK(full.count(s) == 1);
    CHECK_EQ(s->bytes, kMinChunkBytes);
    CHECK_EQ(pool.live_bytes(), kMinChunkBytes);
    CHECK_EQ(resident_pages(s, kChunkBytes), kMinChunkBytes / page);
    pool.release(s);
  }

  pool.trim(0);
  resident = 0;
  for (Chunk* c : full) {
    resident += resident_pages(c, kChunkBytes);
  }
  // No free slot keeps its pages.
  CHECK(resident <= 8 * (kChunkBytes / page));
  CHECK_EQ(pool.live_bytes(), 0u);

  std::set<Chunk*> again;
  for (std::size_t i = 0; i < kHeld; ++i) {
    Chunk* c = pool.acquire(kChunkPayload);
    std::memset(c->data(), 0xcd, kChunkPayload);
    again.insert(c);
  }
  CHECK(again == full);
  CHECK_EQ(pool.live_bytes(), kHeld * kChunkBytes);
  for (Chunk* c : again) {
    pool.release(c);
  }
}

std::size_t maps_lines() {
  std::ifstream f("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(f, line);) {
    ++n;
  }
  return n;
}

// Chunks share a few large mappings instead of taking one each: every
// mapping is its own VMA, and a process holding many small heaps would
// otherwise run into vm.max_map_count (65,530 by default).
PARMEM_TEST(chunkpool_starters_share_few_mappings) {
  constexpr std::size_t kStarters = 80000;
  std::vector<Chunk*> held;
  held.reserve(kStarters);
  const std::size_t before = maps_lines();
  ChunkPool pool;
  for (std::size_t i = 0; i < kStarters; ++i) {
    held.push_back(pool.acquire(64, kMinChunkBytes));
  }
  CHECK_EQ(pool.live_bytes(), kStarters * kMinChunkBytes);
  const std::size_t after = maps_lines();
  CHECK(after < before + 1000);
  for (Chunk* c : held) {
    pool.release(c);
  }
  CHECK_EQ(pool.live_bytes(), 0u);
}

}  // namespace
