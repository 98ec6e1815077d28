// The spin primitives every busy-wait shares: the allocator's promotion
// lock, the scheduler's steal loop, GC-team termination detection and
// the trace layer's slot locks. A header of its own so that
// core/trace.hpp can use them without including core/heap.hpp.
#pragma once

#include <atomic>

namespace parmem {

// Polite spin: tells the core we are in a busy-wait so the sibling
// hyperthread gets the pipeline.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Tiny test-and-set lock for critical sections of a handful of
// instructions (promotion's remote bumps, a trace slot's ring push).
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      cpu_relax();
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

}  // namespace parmem
