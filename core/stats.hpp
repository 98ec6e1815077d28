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

// Snapshot of runtime counters. Monotonic over the life of a runtime;
// bench_common::measure() diffs two snapshots around a run.
struct Stats {
  std::uint64_t promotions = 0;        // entangling writes that promoted
  std::uint64_t promoted_objects = 0;  // objects copied up by promotion
  std::uint64_t promoted_bytes = 0;    // bytes copied up by promotion
  std::uint64_t promo_claim_conflicts = 0;  // lost fine-grained CAS claims
  std::uint64_t gc_count = 0;          // collections (leaf or stop-the-world)
  std::uint64_t gc_bytes_copied = 0;   // live bytes evacuated by GC
  // CPU time the collecting threads spent in collections
  // (thread_cpu_ns): the sequential collector's own thread, or every
  // member of an evacuation team. Billed only by leaf_gc_collect and
  // collect_stopped, so it means the same in every runtime.
  std::uint64_t gc_ns = 0;
  // Wall time the world stood stopped: for each won stop, from every
  // other running task parked to the release (StopGuard). Zero for a
  // runtime that never stops the world.
  std::uint64_t gc_pause_ns = 0;
  std::uint64_t forks = 0;             // fork2 calls
  // Hierarchy-aware internal-heap collections (core/gc_internal.hpp).
  // These are billed to the runtime that owns the collected heap and are
  // ALSO counted in gc_count / gc_bytes_copied / gc_ns above (an internal
  // collection is a collection); the internal_* pair isolates them.
  std::uint64_t internal_gc_count = 0;
  std::uint64_t internal_gc_bytes = 0;  // live bytes evacuated internally
  // Global-heap collections (the localheap runtime's stopped-world
  // depth-0 collection). Also counted in gc_count / gc_bytes_copied /
  // gc_ns; the global_* pair isolates them.
  std::uint64_t global_gc_count = 0;
  std::uint64_t global_gc_bytes = 0;  // live bytes evacuated from global
  // Emergency collections: cascades run because an allocation hit the
  // hard heap budget (or an injected chunk_alloc fault) and the runtime
  // collected everything it could before retrying. Also counted in
  // gc_count; a nonzero value means the computation ran degraded.
  std::uint64_t emergency_gcs = 0;

  Stats& operator+=(const Stats& o) {
    promotions += o.promotions;
    promoted_objects += o.promoted_objects;
    promoted_bytes += o.promoted_bytes;
    promo_claim_conflicts += o.promo_claim_conflicts;
    gc_count += o.gc_count;
    gc_bytes_copied += o.gc_bytes_copied;
    gc_ns += o.gc_ns;
    gc_pause_ns += o.gc_pause_ns;
    forks += o.forks;
    internal_gc_count += o.internal_gc_count;
    internal_gc_bytes += o.internal_gc_bytes;
    global_gc_count += o.global_gc_count;
    global_gc_bytes += o.global_gc_bytes;
    emergency_gcs += o.emergency_gcs;
    return *this;
  }

  Stats operator-(const Stats& o) const {
    Stats d;
    d.promotions = promotions - o.promotions;
    d.promoted_objects = promoted_objects - o.promoted_objects;
    d.promoted_bytes = promoted_bytes - o.promoted_bytes;
    d.promo_claim_conflicts = promo_claim_conflicts - o.promo_claim_conflicts;
    d.gc_count = gc_count - o.gc_count;
    d.gc_bytes_copied = gc_bytes_copied - o.gc_bytes_copied;
    d.gc_ns = gc_ns - o.gc_ns;
    d.gc_pause_ns = gc_pause_ns - o.gc_pause_ns;
    d.forks = forks - o.forks;
    d.internal_gc_count = internal_gc_count - o.internal_gc_count;
    d.internal_gc_bytes = internal_gc_bytes - o.internal_gc_bytes;
    d.global_gc_count = global_gc_count - o.global_gc_count;
    d.global_gc_bytes = global_gc_bytes - o.global_gc_bytes;
    d.emergency_gcs = emergency_gcs - o.emergency_gcs;
    return d;
  }
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
  std::atomic<std::uint64_t> promotions{0};
  std::atomic<std::uint64_t> promoted_objects{0};
  std::atomic<std::uint64_t> promoted_bytes{0};
  std::atomic<std::uint64_t> promo_claim_conflicts{0};
  std::atomic<std::uint64_t> gc_count{0};
  std::atomic<std::uint64_t> gc_bytes_copied{0};
  std::atomic<std::uint64_t> gc_ns{0};
  std::atomic<std::uint64_t> gc_pause_ns{0};
  std::atomic<std::uint64_t> forks{0};
  std::atomic<std::uint64_t> internal_gc_count{0};
  std::atomic<std::uint64_t> internal_gc_bytes{0};
  std::atomic<std::uint64_t> global_gc_count{0};
  std::atomic<std::uint64_t> global_gc_bytes{0};
  std::atomic<std::uint64_t> emergency_gcs{0};

  Stats snapshot() const {
    Stats s;
    s.promotions = promotions.load(std::memory_order_relaxed);
    s.promoted_objects = promoted_objects.load(std::memory_order_relaxed);
    s.promoted_bytes = promoted_bytes.load(std::memory_order_relaxed);
    s.promo_claim_conflicts =
        promo_claim_conflicts.load(std::memory_order_relaxed);
    s.gc_count = gc_count.load(std::memory_order_relaxed);
    s.gc_bytes_copied = gc_bytes_copied.load(std::memory_order_relaxed);
    s.gc_ns = gc_ns.load(std::memory_order_relaxed);
    s.gc_pause_ns = gc_pause_ns.load(std::memory_order_relaxed);
    s.forks = forks.load(std::memory_order_relaxed);
    s.internal_gc_count = internal_gc_count.load(std::memory_order_relaxed);
    s.internal_gc_bytes = internal_gc_bytes.load(std::memory_order_relaxed);
    s.global_gc_count = global_gc_count.load(std::memory_order_relaxed);
    s.global_gc_bytes = global_gc_bytes.load(std::memory_order_relaxed);
    s.emergency_gcs = emergency_gcs.load(std::memory_order_relaxed);
    return s;
  }
};

// CPU time consumed by the calling thread, the clock gc_ns is billed in.
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
// (forks, promotions, chunk traffic) never bounce a shared line.
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
