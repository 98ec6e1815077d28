// Per-thread runtime-phase tags: every thread that touches a runtime
// slow path carries a current Phase (mutator by default), maintained
// by RAII PhaseScopes at the phase transitions -- GC entry points,
// promotion, the scheduler's steal/park loops, safepoint-gate stalls.
//
// Consumers:
//   * the sampling profiler (core/profiler.hpp) tags every stack
//     sample with the sampled thread's current phase, so collapsed
//     stacks fold into per-phase flame graphs;
//   * the trace layer (core/trace.hpp) derives GC-pause kinds from the
//     ambient phase (a leaf collection run under a join-GC scope is a
//     join pause);
//   * the test watchdog dumps every worker's current phase on a hang,
//     so the dump says WHAT each stuck thread was doing.
//
// Cost model: scopes sit only on slow paths (a collection, a
// promotion, an idle steal loop), and a scope is one thread-local
// lookup plus two relaxed stores -- nothing on the nanosecond
// alloc/read/write fast paths, which never see a PhaseScope at all.
//
// The registry is a fixed array of cache-line-sized slots indexed by
// thread_shard_id() (mod kSlots); phases are relaxed atomics so the
// profiler's SIGPROF handler and the watchdog's SIGALRM handler can
// read them async-signal-safely. Two threads folding onto one slot
// (more than kSlots live threads) can interleave their phase stores --
// an observability smudge, never a correctness issue, because each
// scope restores the value it saved on its own stack.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/sig_io.hpp"
#include "core/stats.hpp"

namespace parmem::phase {

enum class Phase : std::uint8_t {
  kMutator = 0,
  kLeafGc,
  kJoinGc,
  kInternalGc,
  kGlobalGc,
  kStwGc,
  kParallelEvac,
  kPromotion,
  kSteal,
  kPark,
  kGateStall,
  kCount,
};

inline const char* name(Phase p) {
  switch (p) {
    case Phase::kMutator:      return "mutator";
    case Phase::kLeafGc:       return "leaf-GC";
    case Phase::kJoinGc:       return "join-GC";
    case Phase::kInternalGc:   return "internal-GC";
    case Phase::kGlobalGc:     return "global-GC";
    case Phase::kStwGc:        return "stw-GC";
    case Phase::kParallelEvac: return "parallel-evac";
    case Phase::kPromotion:    return "promotion";
    case Phase::kSteal:        return "steal";
    case Phase::kPark:         return "park";
    case Phase::kGateStall:    return "gate-stall";
    default:                   return "?";
  }
}

// Is `p` one of the collection phases? The leaf collector keeps an
// enclosing collection phase as its own (its pause is that driver's
// copy step) and tags itself leaf-GC only outside one.
inline bool is_gc(Phase p) {
  return p == Phase::kLeafGc || p == Phase::kJoinGc ||
         p == Phase::kInternalGc || p == Phase::kGlobalGc ||
         p == Phase::kStwGc || p == Phase::kParallelEvac;
}

inline constexpr unsigned kSlots = 64;  // power of two (slot = id & mask)

namespace detail {

struct alignas(64) Slot {
  std::atomic<std::uint8_t> phase{0};  // Phase, relaxed; 0 = kMutator
  std::atomic<std::uint8_t> touched{0};
};

inline Slot* slots() {
  static Slot table[kSlots];
  return table;
}

inline Slot& my_slot() {
  return slots()[thread_shard_id() & (kSlots - 1)];
}

}  // namespace detail

// The calling thread's slot index (for the trace/profiler layers,
// which key their per-worker rings the same way).
inline unsigned my_slot_index() { return thread_shard_id() & (kSlots - 1); }

inline Phase current() {
  return static_cast<Phase>(
      detail::my_slot().phase.load(std::memory_order_relaxed));
}

class PhaseScope {
 public:
  explicit PhaseScope(Phase p) : slot_(&detail::my_slot()) {
    saved_ = slot_->phase.load(std::memory_order_relaxed);
    slot_->phase.store(static_cast<std::uint8_t>(p),
                       std::memory_order_relaxed);
    slot_->touched.store(1, std::memory_order_relaxed);
  }
  ~PhaseScope() { slot_->phase.store(saved_, std::memory_order_relaxed); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  detail::Slot* slot_;
  std::uint8_t saved_;
};

// Watchdog dump: async-signal-safe (relaxed atomic loads + write(2)).
// Prints the current phase of every slot a thread has ever scoped.
inline void dump(int fd) {
  parmem::detail::sig_write(fd, "worker phases:");
  bool any = false;
  for (unsigned i = 0; i < kSlots; ++i) {
    detail::Slot& s = detail::slots()[i];
    if (s.touched.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    any = true;
    parmem::detail::sig_write(fd, " [");
    parmem::detail::sig_write_i64(fd, i);
    parmem::detail::sig_write(fd, "]=");
    parmem::detail::sig_write(
        fd, name(static_cast<Phase>(
                s.phase.load(std::memory_order_relaxed))));
  }
  if (!any) {
    parmem::detail::sig_write(fd, " (none scoped yet)");
  }
  parmem::detail::sig_write(fd, "\n");
}

}  // namespace parmem::phase
