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
#pragma once

#include <atomic>
#include <cstring>

#include "core/failpoint.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace parmem {

// `root_iter(fn)` must invoke fn(Object** slot) for every live root
// slot of the owning task. Returns live bytes evacuated.
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
  const std::uint64_t cpu0 = thread_cpu_ns();
  // This call bills gc_count exactly once below, so it records exactly
  // one pause event; the KIND comes from the ambient phase -- a leaf
  // scan driven by a join/internal collection IS that pause's copy
  // step. The scope only retags to leaf-GC when not already inside a
  // collection phase (keeps profiler samples attributed to the
  // enclosing pause).
  const phase::Phase ambient = phase::current();
  const trace::Ev pause_kind = trace::pause_kind_from_phase(ambient);
  phase::PhaseScope phase_scope(phase::is_gc(ambient)
                                    ? ambient
                                    : phase::Phase::kLeafGc);
  const std::uint64_t trace_t0 = trace::now_ns();

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
  // A full collection settles all promoted-into growth: survivors were
  // re-copied, the rest died with from-space.
  heap->reset_remote_bytes();

  // The pause span ends before the CPU clock is read: that read is a
  // system call (~0.2 us), not part of the collection.
  const std::uint64_t pause_ns = trace::now_ns() - trace_t0;
  stats->gc_count.fetch_add(1, std::memory_order_relaxed);
  stats->gc_bytes_copied.fetch_add(copied, std::memory_order_relaxed);
  stats->gc_ns.fetch_add(thread_cpu_ns() - cpu0, std::memory_order_relaxed);
  trace::record_gc_pause(pause_kind, trace_t0, pause_ns, copied);
  return copied;
}

}  // namespace parmem
