// Hierarchy-aware internal-heap collection: evacuate one INTERNAL heap
// (a heap whose owning task is blocked in fork2 while descendants run)
// in place, while every running task of its runtime is parked at a
// safepoint (core/sched.hpp's SafepointGate).
//
// What makes an internal heap collectable without copying anything
// else: references into heap H can only live in
//
//   1. H itself (the evacuation's own scan of its copies),
//   2. the root frames of H's owner and of every task below it,
//   3. pointer fields of objects in H's DESCENDANT heaps (pointers up
//      the tree are always legal, so any descendant object may point
//      into H), and
//   4. forwarding words of stale promotion copies in descendant heaps
//      whose master was promoted into H (a task holding the stale copy
//      reaches the master by chasing, so the edge is a root: it keeps
//      the master alive and must be rewritten when the master moves).
//
// Ancestors never point down (that is what promotion maintains) and a
// cousin can only reach shared data through a common ancestor of both
// tasks -- which is then an ancestor of H, not H. So the root set is
// "all frames + descendant fields + descendant forwarding words", and
// collect_stopped (core/gc_parallel.hpp: the driver, alone or with a
// team of parked mutators) evacuates H against it unchanged: survivors
// keep their depth and heap, so the zero/one-check barrier invariants
// are untouched, and forwarding chains that used to pass through H are
// shortened past it before from-space is released.
//
// Scanning every descendant object treats descendants as fully live --
// conservative (descendant garbage retains what it references in H)
// but sound; descendant leaves have their own leaf collections.
//
// Allocation faults: the evacuation runs in collector context
// (core/failpoint.hpp GcAllocScope), so heap budgets and injected
// faults never fire inside an internal collection -- which is what
// lets the emergency cascade run collections to RECOVER from a budget
// hit without tripping over it again.
#pragma once

#include <cassert>
#include <vector>

#include "core/heap.hpp"
#include "core/object.hpp"

namespace parmem {

namespace detail {

// Emit the extra root slots contributed by one descendant heap `h` of
// `target`: every non-null pointer field, plus the forwarding word of
// any stale copy whose master sits in target's (already detached and
// from_space-flagged) from-space. Must run inside the collector's
// root_iter callback -- after the flip, before tracing.
template <class SlotFn>
void internal_gc_scan_descendant(Heap* target, Heap* h, SlotFn&& fn) {
  heap_for_each_object(h, [&](Object* o) {
    std::uint32_t np = o->nptr();
    Object** fields = o->ptrs();
    for (std::uint32_t j = 0; j < np; ++j) {
      if (fields[j] != nullptr) {
        fn(&fields[j]);
      }
    }
    Object* f = o->fwd_relaxed();
    if (f != nullptr) {
      assert(f != Object::busy_sentinel() &&
             "promotion in flight during a stopped internal collection");
      Chunk* c = chunk_of(f);
      if (c->from_space.load(std::memory_order_relaxed) &&
          c->heap.load(std::memory_order_relaxed) == target) {
        fn(o->fwd_slot());
      }
    }
  });
}

// The full internal-collection root enumeration; `all_heaps` is every
// live heap of the runtime (one per task context), `frame_roots(fn)`
// invokes fn(Object** slot) on every root-frame slot of every task
// (owner, descendants, and unrelated tasks alike -- unrelated frames
// cannot point into target, so scanning them is merely harmless).
template <class FrameRoots, class SlotFn>
void internal_gc_emit_roots(Heap* target, const std::vector<Heap*>& all_heaps,
                            FrameRoots&& frame_roots, SlotFn&& fn) {
  frame_roots(fn);
  for (Heap* h : all_heaps) {
    if (h != target && h->is_descendant_of(target)) {
      internal_gc_scan_descendant(target, h, fn);
    }
  }
}

}  // namespace detail
}  // namespace parmem
