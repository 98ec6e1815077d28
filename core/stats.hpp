// Runtime-wide counters and tuning knobs shared by every runtime
// flavour. Counters are
// updated only on slow paths (promotion, GC, chunk traffic) so they
// never tax the nanosecond fast paths.
#pragma once

#include <time.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace parmem {

// How entangling pointer writes promote the source closure.
enum class PromotionMode {
  kCoarseLocking,  // lock the heap path from target down to leaf (paper Sec 3)
  kFineGrained,    // CAS-claim per object + spinlocked remote bump (Sec 5)
};

// The counter table: one X(name) per counter, with its one definition.
// Stats and StatsCell, their arithmetic and the "counters" object of the
// stats JSON line (core/stats_json.hpp) are all generated from it, in
// this order. Every counter is monotonic over the life of a runtime.
// (Block comments only: a line comment would swallow the continuation.)
#define PARMEM_STATS_COUNTERS(X)                                             \
  /* Promotions that copied at least one object: entangling writes in        \
     hier, escapes (fork2 roots, publish, escaping writes) in localheap.     \
     Billed only by run_promotion (core/promote.hpp). */                     \
  X(promotions)                                                              \
  /* Objects copied up by them. */                                           \
  X(promoted_objects)                                                        \
  /* Bytes copied up by them. */                                             \
  X(promoted_bytes)                                                          \
  /* Lost fine-grained claim CASes (core/promote.hpp). */                    \
  X(promo_claim_conflicts)                                                   \
  /* Collections of every kind: leaf, join, internal, global, stopped-       \
     world, emergency rungs. Each records exactly one GC pause. */           \
  X(gc_count)                                                                \
  /* Live bytes those collections evacuated. */                              \
  X(gc_bytes_copied)                                                         \
  /* Leaf collections that kept their heap in place instead of               \
     evacuating it (core/gc_leaf.hpp collect_due): budget-triggered          \
     ones that found it mostly live, and every other GC-stress one.          \
     Also counted as collections, with their CPU time; they copy             \
     nothing. */                                                             \
  X(gc_kept)                                                                 \
  /* CPU time the collecting threads spent in collections                    \
     (thread_cpu_ns): the leaf collector's own thread, or every member       \
     of a stopped world's evacuation team. Billed only by GcPause            \
     (core/gc_parallel.hpp), for the leaf collector and collect_stopped. */  \
  X(gc_ns)                                                                   \
  /* Wall time the world stood stopped: for each won stop, from every        \
     other running task parked to the release (StopGuard). Zero for a        \
     runtime that never stops the world. */                                  \
  X(gc_pause_ns)                                                             \
  /* fork2 calls. */                                                         \
  X(forks)                                                                   \
  /* Hierarchy-aware internal-heap collections (core/gc_internal.hpp),       \
     billed to the runtime that owns the collected heap. Also counted        \
     among the collections above; this pair isolates them. */                \
  X(internal_gc_count)                                                       \
  /* Live bytes evacuated by internal collections. */                        \
  X(internal_gc_bytes)                                                       \
  /* Global-heap collections (the localheap runtime's stopped-world          \
     depth-0 collection). Also counted among the collections above;          \
     this pair isolates them. */                                             \
  X(global_gc_count)                                                         \
  /* Live bytes evacuated from the global heap. */                           \
  X(global_gc_bytes)                                                         \
  /* Emergency cascades: an allocation hit the hard heap budget (or an       \
     injected chunk_alloc fault) and the runtime collected everything        \
     it could before retrying. Billed only by                                \
     RuntimeShell::emergency_collect; a nonzero value means the              \
     computation ran degraded. */                                            \
  X(emergency_gcs)

// Snapshot of runtime counters; bench_common::measure() diffs two
// snapshots around a run.
struct Stats {
#define PARMEM_STATS_FIELD(name) std::uint64_t name = 0;
  PARMEM_STATS_COUNTERS(PARMEM_STATS_FIELD)
#undef PARMEM_STATS_FIELD

  Stats& operator+=(const Stats& o);
  Stats operator-(const Stats& o) const;
};

// Point-in-time view of a runtime's counters plus its memory
// occupancy, cheap enough to take from a sampler thread while the
// world keeps running: every source is a relaxed atomic (sharded
// counters, the chunk pool's live/peak gauges), so no collection, no
// lock, and no safepoint is involved. Steady-state consumers (the
// serve harness's RSS/fragmentation sampling, the soak tests) diff two
// of these around an interval; live_bytes is the denominator of the
// fragmentation ratio RSS / live.
struct StatsSnapshot {
  Stats stats;                 // monotonic counters (diff two snapshots)
  std::size_t live_bytes = 0;  // chunk bytes currently checked out
  std::size_t peak_bytes = 0;  // lifetime high-water chunk footprint

  // Counter delta over [earlier, this]. Memory gauges are levels, not
  // counters, so the caller reads them off each endpoint directly.
  Stats interval_since(const StatsSnapshot& earlier) const {
    return stats - earlier.stats;
  }
};

// Shared mutable counter block; one per runtime instance.
struct StatsCell {
#define PARMEM_STATS_FIELD(name) std::atomic<std::uint64_t> name{0};
  PARMEM_STATS_COUNTERS(PARMEM_STATS_FIELD)
#undef PARMEM_STATS_FIELD

  Stats snapshot() const;
};

// Calls f(key, &Stats::field, &StatsCell::field) for every counter, in
// table order; the key is the field's name.
template <class F>
void for_each_counter(F&& f) {
#define PARMEM_STATS_VISIT(name) f(#name, &Stats::name, &StatsCell::name);
  PARMEM_STATS_COUNTERS(PARMEM_STATS_VISIT)
#undef PARMEM_STATS_VISIT
}

inline Stats& Stats::operator+=(const Stats& o) {
  for_each_counter([&](const char*, auto field, auto) {
    this->*field += o.*field;
  });
  return *this;
}

inline Stats Stats::operator-(const Stats& o) const {
  Stats d;
  for_each_counter([&](const char*, auto field, auto) {
    d.*field = this->*field - o.*field;
  });
  return d;
}

inline Stats StatsCell::snapshot() const {
  Stats s;
  for_each_counter([&](const char*, auto field, auto cell) {
    s.*field = (this->*cell).load(std::memory_order_relaxed);
  });
  return s;
}

// CPU time consumed by the calling thread, the clock collector CPU
// time is billed in.
inline std::uint64_t thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Stable small integer id for the calling thread, assigned on first
// use and fixed for the thread's lifetime. Shard pickers (stats,
// chunk caches) reduce it modulo their own power-of-two shard count;
// ids are never recycled, so two live threads never share an id (they
// may share a shard, which is a contention question, not correctness).
inline unsigned thread_shard_id() {
  static std::atomic<unsigned> next{0};
  static thread_local unsigned id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Per-worker sharded counter block: each shard is a full StatsCell on
// its own cache line(s), so workers bumping counters on hot slow paths
// (fork2, promotion, chunk traffic) never bounce a shared line.
// Aggregated on read -- snapshot() sums every shard, which is exact
// because each counter is monotonic and relaxed adds commute. Code
// that hands a counter block to a collector still passes a plain
// StatsCell* (`&stats.local()`), so the collector interfaces are
// unchanged.
class ShardedStats {
 public:
  // `shards` is rounded up to a power of two; pass the resolved worker
  // count (threads beyond it fold onto existing shards by modulo).
  explicit ShardedStats(unsigned shards) {
    unsigned n = 1;
    while (n < shards) {
      n <<= 1;
    }
    mask_ = n - 1;
    cells_ = std::make_unique<Cell[]>(n);
  }

  StatsCell& local() { return cells_[thread_shard_id() & mask_].c; }
  unsigned shard_count() const { return mask_ + 1; }

  Stats snapshot() const {
    Stats total;
    for (unsigned i = 0; i <= mask_; ++i) {
      total += cells_[i].c.snapshot();
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    StatsCell c;
  };

  std::unique_ptr<Cell[]> cells_;
  unsigned mask_;
};

}  // namespace parmem
