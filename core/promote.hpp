// Promotion: when a pointer write would entangle the heap hierarchy
// (store a deeper object into a shallower one), the transitive closure
// of the written value that lives below the target heap is copied up
// into it. Old copies get forwarding pointers and stay readable, so a
// task holding a stale reference pays only a chase in its mutable
// barriers.
//
// Two synchronisation protocols:
//   kCoarseLocking -- the paper's design: lock the heap path from the
//       target down to the writer's leaf, copy, store, unlock.
//   kFineGrained   -- Section 5 future work: claim each object with a
//       CAS on its forwarding word (kBusy while mid-copy) and bump the
//       target heap under a spinlock; no path locks.
//
// Programs are expected to be race-free at the language level (the
// paper's deterministic fork-join setting); racing user mutation with
// a concurrent promotion of the same object is a program bug, exactly
// as racing two writes is.
#pragma once

#include <cstring>
#include <vector>

#include "core/failpoint.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace parmem {
namespace detail {

struct PromoteResult {
  Object* master;              // src after promotion
  std::uint64_t objects = 0;   // objects copied
  std::uint64_t bytes = 0;     // bytes copied
};

// Copy `m` (chased, strictly deeper than dst) into dst. Caller holds
// whatever lock the mode requires for dst's bump pointer.
inline Object* copy_object_into(Object* m, Heap* dst) {
  Object* n = dst->bump_alloc(m->nptr(), m->nscalar());
  std::size_t payload = 8u * (std::size_t{m->nptr()} + m->nscalar());
  std::memcpy(n->scalars(), m->scalars(), payload);
  return n;
}

// ---- coarse path-locking protocol -----------------------------------------

inline PromoteResult promote_coarse_locked(Object* src, Heap* dst) {
  PromoteResult res{nullptr};
  std::uint32_t target_depth = dst->depth();
  std::vector<Object*> scan;

  auto copy_one = [&](Object* m) {
    Object* n = copy_object_into(m, dst);
    m->set_fwd(n);  // release: publish before fields are fixed (Cheney)
    scan.push_back(n);
    res.objects += 1;
    res.bytes += n->size();
    return n;
  };

  Object* root = Object::chase(src);
  if (heap_of(root)->depth() > target_depth) {
    root = copy_one(root);
  }
  for (std::size_t i = 0; i < scan.size(); ++i) {
    Object* n = scan[i];
    std::uint32_t np = n->nptr();
    for (std::uint32_t j = 0; j < np; ++j) {
      Object* q = n->ptrs()[j];
      if (q == nullptr) {
        continue;
      }
      q = Object::chase(q);
      if (heap_of(q)->depth() > target_depth) {
        q = copy_one(q);
      }
      n->set_ptr_relaxed(j, q);
    }
  }
  res.master = root;
  return res;
}

// ---- fine-grained claim protocol ------------------------------------------

inline Object* claim_and_copy_fine(Object* m, Heap* dst,
                                   PromoteResult* res,
                                   std::vector<Object*>* scan,
                                   StatsCell* stats) {
  std::uint32_t target_depth = dst->depth();
  for (;;) {
    m = Object::chase(m);  // spins past other claimers
    if (heap_of(m)->depth() <= target_depth) {
      return m;  // someone (possibly us, earlier) already lifted it enough
    }
    // Pre-reserve dst space BEFORE claiming: from claim_fwd to set_fwd
    // nothing may throw, or the kBusy sentinel would strand and hang
    // every chaser. reserve() is the only step that can fail (true OS
    // OOM -- budget and injected faults never fire inside the copy
    // window), and here the object is still unclaimed and chaseable.
    // The claim itself happens under the remote lock too; that is
    // safe because claimers never spin on a forwarding word while
    // holding the lock (chase() runs before acquisition), so a
    // teammate's kBusy cannot deadlock against us.
    std::size_t need = Object::size_bytes(m->nptr(), m->nscalar());
    dst->remote_lock().lock();
    try {
      dst->reserve(need);
    } catch (...) {
      dst->remote_lock().unlock();
      throw;
    }
    if (!m->claim_fwd()) {
      dst->remote_lock().unlock();
      stats->promo_claim_conflicts.fetch_add(1, std::memory_order_relaxed);
      continue;  // lost the race; chase the winner's forwarding pointer
    }
    Object* n = copy_object_into(m, dst);  // bump within the reserve
    dst->remote_lock().unlock();
    m->set_fwd(n);  // replaces kBusy; releases waiting chasers
    scan->push_back(n);
    res->objects += 1;
    res->bytes += n->size();
    return n;
  }
}

inline PromoteResult promote_fine(Object* src, Heap* dst, StatsCell* stats) {
  PromoteResult res{nullptr};
  std::vector<Object*> scan;
  res.master = claim_and_copy_fine(src, dst, &res, &scan, stats);
  for (std::size_t i = 0; i < scan.size(); ++i) {
    Object* n = scan[i];
    std::uint32_t np = n->nptr();
    for (std::uint32_t j = 0; j < np; ++j) {
      Object* q = n->ptrs()[j];
      if (q == nullptr) {
        continue;
      }
      q = claim_and_copy_fine(q, dst, &res, &scan, stats);
      n->set_ptr(j, q);
    }
  }
  return res;
}

// Lock the heap path from `dst` (exclusive top) down to `leaf`,
// shallow-first to keep a global acquisition order along tree paths.
class PathLockGuard {
 public:
  PathLockGuard(Heap* leaf, Heap* dst) {
    for (Heap* h = leaf; h != nullptr; h = h->parent()) {
      heaps_.push_back(h);
      if (h == dst) {
        break;
      }
    }
    for (std::size_t i = heaps_.size(); i-- > 0;) {
      heaps_[i]->path_lock().lock();
    }
  }
  ~PathLockGuard() {
    for (Heap* h : heaps_) {
      h->path_lock().unlock();
    }
  }
  PathLockGuard(const PathLockGuard&) = delete;
  PathLockGuard& operator=(const PathLockGuard&) = delete;

 private:
  std::vector<Heap*> heaps_;  // leaf-first (deepest to shallowest)
};

}  // namespace detail

// The one promotion envelope, shared by promote_and_store and the
// localheap runtime's promote_to_global: `copy_and_store()` copies a
// closure up (and stores it, if the caller stores) and returns its
// PromoteResult; everything around it is here. A promotion counts in
// Stats::promotions when it copied at least one object. `pool` is the
// pool whose occupancy an injected promote_copy fault reports.
template <class CopyAndStore>
detail::PromoteResult run_promotion(ChunkPool* pool, StatsCell* stats,
                                    CopyAndStore&& copy_and_store) {
  // The injected promote_copy fault fires HERE, before any mutation:
  // nothing is claimed or copied yet, so the throw unwinds cleanly to
  // the store or escape that asked for the promotion.
  // (gc_exempt first: an exempt caller must not consume a scheduled hit.)
  if (__builtin_expect(!failpoint::gc_exempt() &&
                           failpoint::triggered(failpoint::Site::kPromoteCopy),
                       0)) {
    throw OutOfMemory("promote_copy", 0, pool->live_bytes(), pool->budget(),
                      pool->peak_bytes());
  }
  // Past this point the copy loop is a non-unwindable window, like a
  // collection: once the first set_fwd publishes, the partial copies
  // are reachable through forwarding words, and abandoning them would
  // leave ancestor objects with un-lifted (deeper-heap) fields for a
  // later leaf GC to dangle. So budget checks and injected faults are
  // suppressed for the copies themselves -- a budget overshoot here is
  // bounded by one promoted closure and is charged at the mutator's
  // next chunk allocation instead.
  failpoint::GcAllocScope copy_scope;
  phase::PhaseScope promo_scope(phase::Phase::kPromotion);
  // Promotions can be hot (every entangling write); even the clock
  // reads are skipped unless trace rings are on.
  const bool traced = trace::ring_enabled();
  const std::uint64_t trace_t0 = traced ? trace::now_ns() : 0;
  const detail::PromoteResult res = copy_and_store();
  if (res.objects != 0) {
    stats->promotions.fetch_add(1, std::memory_order_relaxed);
    stats->promoted_objects.fetch_add(res.objects, std::memory_order_relaxed);
    stats->promoted_bytes.fetch_add(res.bytes, std::memory_order_relaxed);
  }
  if (traced) {
    trace::record_promotion(trace_t0, trace::now_ns() - trace_t0, res.bytes);
  }
  return res;
}

// Promote the closure of `v` into heap_of(dst_obj) and then perform
// the entangling store dst_obj.ptr[idx] = v, all under the protocol
// selected by `mode`. `leaf` is the writing task's leaf heap. Kept out
// of line: inlined into the write barrier's slow path, it would push
// the barrier itself out of its callers' loops.
__attribute__((noinline)) inline void promote_and_store(
    Object* dst_obj, std::uint32_t idx, Object* v, Heap* leaf,
    PromotionMode mode, StatsCell* stats) {
  run_promotion(leaf->pool(), stats, [&] {
    detail::PromoteResult res{nullptr};
    if (mode == PromotionMode::kCoarseLocking) {
      // The destination object may itself be mid-promotion by a cousin;
      // re-chase under the locks and restart if it moved above our lock
      // span.
      for (;;) {
        Heap* dst_heap = heap_of(dst_obj = Object::chase(dst_obj));
        detail::PathLockGuard guard(leaf, dst_heap);
        Object* d = Object::chase(dst_obj);
        if (heap_of(d) != dst_heap) {
          continue;  // moved while we were acquiring; retry at new depth
        }
        res = detail::promote_coarse_locked(v, dst_heap);
        d->set_ptr(idx, res.master);
        // Feed the internal-collection policy: this heap just grew by
        // remotely promoted bytes its owner never allocated.
        dst_heap->note_remote_bytes(res.bytes);
        break;
      }
    } else {
      Heap* dst_heap = heap_of(Object::chase(dst_obj));
      res = detail::promote_fine(v, dst_heap, stats);
      Object::chase(dst_obj)->set_ptr(idx, res.master);
      dst_heap->note_remote_bytes(res.bytes);
    }
    return res;
  });
}

}  // namespace parmem
