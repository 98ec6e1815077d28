// Leaf-heap collection policy: when the heap only its owning task can
// allocate into is collected, and whether it moves. Roots are the
// task's RootFrame slots; tracing stops at any object owned by an
// ancestor heap (the hierarchy invariant guarantees ancestors never
// point down into a leaf, so the leaf can be collected without looking
// at anyone else and without stopping any other task). The copying
// itself is core/gc_parallel.hpp's ParallelCollector, the one evacuator
// of every collection, run as a team of one on the owner's thread.
// What stays here is the policy:
//
//   - trigger: the allocation slow path collects a heap once its chunk
//     bytes reach gc_trigger_bytes(min, growth, its live estimate)
//     (Heap::gc_due); collect_now and the emergency cascade force one.
//   - mark, then keep or evacuate: a triggered collection (collect_due)
//     first traces the same roots through the same Object::chase and
//     the same "owned by this heap" test as the evacuator, summing the
//     live bytes L. When L is at least kKeepLiveFraction of the heap's
//     chunk bytes it keeps every object where it is: nothing moves, so
//     no pointer anywhere needs fixing, and the heap records L as its
//     survivors. This stops a merged heap whose children's data is
//     still live from being copied again at every fork level. Forced
//     collections (collect_now, emergency, join, internal, global,
//     stw) always evacuate.
//   - GC-stress check: under stress every safepoint collection marks,
//     alternates keeping and evacuating, and aborts when the evacuator
//     copies other than the bytes the mark pass found live.
//
// Mark state never leaves the collecting thread: the mark bits live in
// a thread-local side bitmap, found through a per-collection index in
// each chunk header, never in an object word. Siblings chase the
// forwarding words of objects they reach through shared ancestor
// frames, so those words must stay untouched.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/gc_parallel.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/stats.hpp"

namespace parmem {

// A budget-triggered collection keeps its heap in place when at least
// this share of the heap's chunk bytes is live. On batch_pure's map the
// first-level heaps are 0.56 live (chunk tails of the doubling
// schedule) and must still be compacted; the merged second-level heaps
// are 0.95 live. Any value between the two makes the same decisions.
inline constexpr double kKeepLiveFraction = 0.75;

namespace leaf_gc_detail {

// The mark pass's scratch, reused by every collection on this thread.
struct MarkScratch {
  std::vector<std::uint64_t> bits;  // one bit per 16-byte granule
  std::vector<Object*> stack;       // marked objects with pointer fields
};

inline MarkScratch& mark_scratch() {
  static thread_local MarkScratch s;
  return s;
}

// GC stress alternates keeping and evacuating its forced collections.
inline bool stress_keep_turn() {
  static thread_local bool keep = false;
  keep = !keep;
  return keep;
}

}  // namespace leaf_gc_detail

// The mark pass: the live bytes an evacuation of `heap` would copy,
// measured without moving, forwarding or writing any object. Traces
// exactly as the evacuator does: each root and field is chased, and
// only objects in chunks this heap owns are counted and scanned. A
// chunk's bits start at the word its header's mark_word names, which
// this pass assigns afresh. The heap must have chunks.
template <class RootIter>
std::size_t leaf_gc_mark(Heap* heap, RootIter&& root_iter) {
  leaf_gc_detail::MarkScratch& s = leaf_gc_detail::mark_scratch();
  heap->retire_tail();
  std::size_t words = 0;
  for (Chunk* c = heap->chunks(); c != nullptr; c = c->next) {
    c->mark_word = words;
    // An oversized chunk holds one object, at its start.
    const std::size_t granules =
        c->oversized ? 1
                     : static_cast<std::size_t>(c->obj_end - c->data()) /
                           Object::kAlign;
    words += (granules + 63) / 64;
  }
  s.bits.assign(words, 0);

  std::size_t live = 0;
  auto mark = [&](Object* p) {
    if (p == nullptr) {
      return;
    }
    p = Object::chase(p);
    Chunk* c = chunk_of(p);
    if (c->heap.load(std::memory_order_relaxed) != heap) {
      return;  // ancestor-owned: an evacuation would not copy it either
    }
    const std::size_t g =
        static_cast<std::size_t>(reinterpret_cast<char*>(p) - c->data()) /
        Object::kAlign;
    std::uint64_t& w = s.bits[c->mark_word + g / 64];
    const std::uint64_t bit = std::uint64_t{1} << (g % 64);
    if ((w & bit) != 0) {
      return;
    }
    w |= bit;
    live += p->size();
    if (p->nptr() != 0) {
      s.stack.push_back(p);
    }
  };
  root_iter([&](Object** slot) {
    mark(std::atomic_ref<Object*>(*slot).load(std::memory_order_relaxed));
  });
  while (!s.stack.empty()) {
    Object* o = s.stack.back();
    s.stack.pop_back();
    const std::uint32_t np = o->nptr();
    for (std::uint32_t j = 0; j < np; ++j) {
      mark(o->ptrs()[j]);
    }
  }
  return live;
}

// A forced collection: always evacuates. `root_iter(fn)` must invoke
// fn(Object** slot) for every live root slot of the owning task.
// Returns live bytes evacuated, and records them on the heap for its
// leaf-GC trigger (Heap::note_collected).
template <class RootIter>
std::size_t leaf_gc_collect(Heap* heap, StatsCell* stats,
                            RootIter&& root_iter) {
  if (heap->chunks() == nullptr) {
    // Empty heap (fresh, or all chunks already reclaimed): a true
    // no-op. In particular this must not count as a collection or
    // perturb the chunk-doubling schedule -- GC-stress mode collects
    // at every safepoint, which hits this case constantly.
    return 0;
  }
  core::GcPause pause;
  const std::size_t copied = core::ParallelCollector(*heap->pool(), heap, 1)
                                 .collect(root_iter)
                                 .totals.bytes_copied;
  pause.finish(stats, copied, /*kept=*/false);
  return copied;
}

// The allocation slow path's leaf collection, which every runtime with
// leaf heaps calls. Collects when the heap is due (Heap::gc_due); a
// heap whose mark finds at least kKeepLiveFraction of its chunk bytes
// live, and which keeping would leave below its next trigger, is kept
// in place (Heap::note_kept) and bills one collection that copied 0
// bytes and counts in gc_kept. The mark is skipped when the heap has
// not even allocated that share, since L never exceeds it.
//
// With `stress` (GC-stress mode) it collects at every call instead,
// marks first every time and alternates keeping and evacuating, so the
// stress matrix runs the kept path too; an evacuation that copies other
// than the marked bytes aborts the process, naming the mismatch.
template <class RootIter>
void collect_due(Heap* heap, StatsCell* stats, std::size_t min_bytes,
                 double growth, bool stress, RootIter&& root_iter) {
  if ((!stress && !heap->gc_due(min_bytes, growth)) ||
      heap->chunks() == nullptr) {
    return;
  }
  core::GcPause pause;
  const std::size_t bytes = heap->chunk_bytes();
  auto dense = [bytes](std::size_t live) {
    return static_cast<double>(live) >=
           kKeepLiveFraction * static_cast<double>(bytes);
  };
  std::size_t live = 0;
  bool keep = false;
  if (__builtin_expect(stress, 0)) {
    live = leaf_gc_mark(heap, root_iter);
    keep = leaf_gc_detail::stress_keep_turn();
  } else if (dense(heap->allocated_bytes())) {
    live = leaf_gc_mark(heap, root_iter);
    keep = dense(live) && bytes < gc_trigger_bytes(min_bytes, growth, live);
  }
  std::size_t copied = 0;
  if (keep) {
    heap->note_kept(live);
  } else {
    copied = core::ParallelCollector(*heap->pool(), heap, 1)
                 .collect(root_iter)
                 .totals.bytes_copied;
    if (stress && copied != live) {
      std::fprintf(stderr,
                   "parmem: leaf GC mark/evacuate mismatch: marked %zu live "
                   "bytes, evacuated %zu\n",
                   live, copied);
      std::abort();
    }
  }
  pause.finish(stats, copied, keep);
}

}  // namespace parmem
