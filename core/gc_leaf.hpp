// Leaf-heap collection: a Cheney-style copying collector for the one
// heap only its owning task can allocate into. Roots are the task's
// RootFrame slots; tracing stops at any object owned by an ancestor
// heap (the hierarchy invariant guarantees ancestors never point down
// into a leaf, so the leaf can be collected without looking at anyone
// else and without stopping any other task).
//
// The object forwarding word is reused for GC forwarding; stale
// promotion copies sitting in the leaf simply chase to their master
// and die with the from-space chunks.
//
// A collection the allocation slow path triggers because the heap
// reached its budget (collect_due) marks before it evacuates. The mark
// pass traces the same roots through the same Object::chase and the
// same "owned by this heap" test, and sums the live bytes L. When L is
// at least kKeepLiveFraction of the heap's chunk bytes the collection
// keeps every object where it is: nothing moves, so no pointer anywhere
// needs fixing, and the heap records L as its survivors. This is what
// stops a merged heap whose children's data is still live from being
// copied again at every fork level. Forced collections (collect_now,
// emergency, join, internal, global, stw) always evacuate.
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
#include <cstring>
#include <vector>

#include "core/failpoint.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace parmem {

// A budget-triggered collection keeps its heap in place when at least
// this share of the heap's chunk bytes is live. On batch_pure's map the
// first-level heaps are 0.56 live (chunk tails of the doubling
// schedule) and must still be compacted; the merged second-level heaps
// are 0.95 live. Any value between the two makes the same decisions.
inline constexpr double kKeepLiveFraction = 0.75;

namespace leaf_gc_detail {

// The billing of one leaf collection, opened before it starts and
// closed by finish(): gc_count once, the bytes it copied, gc_ns for
// the collecting thread's CPU time, and exactly one pause event. The
// pause KIND comes from the ambient phase -- a leaf scan driven by a
// join/internal collection IS that pause's copy step. The phase is
// retagged to leaf-GC only when not already inside a collection phase
// (keeps profiler samples attributed to the enclosing pause).
class Pause {
 public:
  Pause()
      : trace_t0_(trace::now_ns()),
        cpu0_(thread_cpu_ns()),
        ambient_(phase::current()),
        kind_(trace::pause_kind_from_phase(ambient_)),
        scope_(phase::is_gc(ambient_) ? ambient_ : phase::Phase::kLeafGc) {}
  Pause(const Pause&) = delete;
  Pause& operator=(const Pause&) = delete;

  // `team_cpu_ns` is CPU time other threads spent on this collection
  // (collect_stopped's recruits).
  void finish(StatsCell* stats, std::size_t copied, bool kept,
              std::uint64_t team_cpu_ns = 0) {
    // The pause span encloses both CPU clock reads (system calls): on
    // a stopped world the mutators wait through them too.
    stats->gc_ns.fetch_add(thread_cpu_ns() - cpu0_ + team_cpu_ns,
                           std::memory_order_relaxed);
    const std::uint64_t pause_ns = trace::now_ns() - trace_t0_;
    stats->gc_count.fetch_add(1, std::memory_order_relaxed);
    stats->gc_bytes_copied.fetch_add(copied, std::memory_order_relaxed);
    if (kept) {
      stats->gc_kept.fetch_add(1, std::memory_order_relaxed);
    }
    trace::record_gc_pause(kind_, trace_t0_, pause_ns, copied);
  }

 private:
  std::uint64_t trace_t0_;
  std::uint64_t cpu0_;
  phase::Phase ambient_;
  trace::Ev kind_;
  phase::PhaseScope scope_;
};

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

// The Cheney pass: evacuates everything reachable from the roots into
// fresh chunks, releases from-space, records the survivors on the heap
// and returns the bytes copied. The heap must have chunks.
template <class RootIter>
std::size_t evacuate(Heap* heap, RootIter&& root_iter) {
  // To-space copies are collector-context allocations: exempt from the
  // heap budget and injected faults (a Cheney scan cannot unwind once
  // from-space is detached), and bounded by live data anyway.
  failpoint::GcAllocScope gc_scope;

  Chunk* from = heap->detach_chunks();
  for (Chunk* c = from; c != nullptr; c = c->next) {
    c->from_space.store(true, std::memory_order_relaxed);
  }

  std::size_t copied = 0;
  auto forward = [&](Object* p) -> Object* {
    if (p == nullptr) {
      return nullptr;
    }
    p = Object::chase(p);  // promoted -> master; already-copied -> to-space
    Chunk* c = chunk_of(p);
    if (!c->from_space.load(std::memory_order_relaxed) ||
        c->heap.load(std::memory_order_relaxed) != heap) {
      return p;  // ancestor-owned (or already evacuated): not ours to move
    }
    Object* n = heap->bump_alloc(p->nptr(), p->nscalar());
    std::size_t payload = 8u * (std::size_t{p->nptr()} + p->nscalar());
    std::memcpy(n->scalars(), p->scalars(), payload);
    p->set_fwd(n, std::memory_order_relaxed);  // single-task heap: no release
    copied += n->size();
    return n;
  };

  // Write a slot back only when forwarding moved it. A slot needs
  // rewriting only if it held one of THIS heap's objects, and such
  // slots are accessed by this task alone; slots holding null or
  // foreign (e.g. global) pointers may be concurrently published into
  // by a sibling branch under the local-heap runtime, and skipping the
  // dead store keeps this scan read-only on them (no lost updates).
  root_iter([&](Object** slot) {
    Object* cur =
        std::atomic_ref<Object*>(*slot).load(std::memory_order_relaxed);
    Object* fwd = forward(cur);
    if (fwd != cur) {
      std::atomic_ref<Object*>(*slot).store(fwd, std::memory_order_relaxed);
    }
  });

  // Cheney scan: walk to-space objects in allocation order; the list
  // grows at the tail while we scan.
  Chunk* c = heap->chunks();
  char* p = (c != nullptr) ? c->data() : nullptr;
  while (c != nullptr) {
    for (;;) {
      char* limit = (c == heap->tail()) ? heap->top() : c->obj_end;
      if (p >= limit) {
        break;
      }
      Object* o = reinterpret_cast<Object*>(p);
      std::uint32_t np = o->nptr();
      for (std::uint32_t j = 0; j < np; ++j) {
        o->ptrs()[j] = forward(o->ptrs()[j]);
      }
      p += o->size();
    }
    if (c->next == nullptr &&
        (c == heap->tail() ? p >= heap->top() : p >= c->obj_end)) {
      break;
    }
    if (c->next != nullptr) {
      c = c->next;
      p = c->data();
    }
  }

  while (from != nullptr) {
    Chunk* n = from->next;
    heap->pool()->release(from);
    from = n;
  }
  heap->note_collected(copied);
  return copied;
}

}  // namespace leaf_gc_detail

// The mark pass: the live bytes an evacuation of `heap` would copy,
// measured without moving, forwarding or writing any object. Traces
// exactly as the Cheney pass does: each root and field is chased, and
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
  leaf_gc_detail::Pause pause;
  const std::size_t copied = leaf_gc_detail::evacuate(heap, root_iter);
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
  leaf_gc_detail::Pause pause;
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
    copied = leaf_gc_detail::evacuate(heap, root_iter);
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
