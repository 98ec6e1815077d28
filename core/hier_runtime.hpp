// Hierarchical-heap runtime (Guatto et al., PPoPP 2018): a tree of
// task-local heaps mirroring the fork-join tree, with object promotion
// on entangling pointer writes. The fast paths are engineered to stay
// at a handful of instructions:
//
//   ctx.alloc(np, ns)      pointer bump + overflow check, no locks
//   Ctx::read_i64_imm      one load (scalars sit at a fixed offset)
//   Ctx::read_i64_mut      one forwarding-word check, then the load
//   Ctx::write_i64         one forwarding-word check, then the store
//   ctx.write_ptr          two heap lookups (mask+load) on the
//                          leaf-local path; locking/promotion only on
//                          entangling stores into ancestor heaps
//
// fork2 splits the current leaf into two child leaves on a
// work-stealing pool and merges them back at the join -- child objects
// keep their addresses, so results flow to the parent without copying
// and balanced programs promote nothing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/gc_internal.hpp"
#include "core/gc_leaf.hpp"
#include "core/gc_parallel.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/promote.hpp"
#include "core/roots.hpp"
#include "core/sched.hpp"
#include "core/stats.hpp"
#include "runtimes/runtime_api.hpp"

namespace parmem {

struct HierOptions {
  unsigned workers = 0;  // 0 = one per hardware thread
  PromotionMode promotion = PromotionMode::kCoarseLocking;
  std::size_t gc_min_budget = std::size_t{4} << 20;  // leaf bytes before GC
  std::size_t gc_join_threshold = 0;  // 0 = no collection at joins
  // A heap collects once its chunks reach max(gc_min_budget, factor
  // x its live estimate): the bytes its last collection evacuated,
  // plus the larger child's estimate at each join since
  // (Heap::join_children), so a join does not reset the budget.
  double gc_growth_factor = 8.0;
  // Largest evacuation team for stopped-world collections (join,
  // internal and emergency; core/gc_parallel.hpp collect_stopped): up
  // to gc_parallel_team - 1 mutators parked by the stop are recruited
  // to copy alongside the driver. With 0 or 1, or when the stop finds
  // nobody parked, the driver evacuates alone (a team of one).
  unsigned gc_parallel_team = 0;
  // Hierarchy-aware internal-heap collection (core/gc_internal.hpp):
  // when a promotion pushes a heap's promoted-into bytes past this
  // threshold, the next task to reach a safepoint (allocation slow
  // path or fork2 boundary) pauses the running set and collects every
  // such heap in place -- so promotion chains into a BUSY internal
  // heap no longer accumulate until its owner rejoins.
  // 0 = PARMEM_INTERNAL_GC_THRESHOLD, else disabled.
  std::size_t gc_internal_threshold = 0;
  // GC-stress differential-testing mode: force a leaf collection and
  // a join collection at every safepoint and ring the internal-
  // collection doorbell with a 1-byte threshold, so every collector
  // runs constantly. Checksums must be unchanged under it.
  // PARMEM_GC_STRESS turns it on too.
  bool gc_stress = false;
  // Hard cap on pool bytes; 0 = PARMEM_HEAP_BUDGET, else unlimited.
  // A nonzero budget enables the safepoint machinery (like
  // gc_internal_threshold does), because the emergency cascade's
  // last rung is a stopped-world collection of every live heap:
  // leaf, then all heaps deepest-first, then one allocation retry
  // before parmem::OutOfMemory reaches the program.
  std::size_t heap_budget_bytes = 0;
  // Deterministic allocation-fault injection, e.g.
  // "chunk_alloc=fail@3;promote_copy=every(100)". Installed into the
  // process-wide registry (core/failpoint.hpp); "" = none.
  std::string failpoints;
  // Append one JSON line of counters + pause-histogram summaries to
  // this file when the runtime is destroyed (core/stats_json.hpp).
  // "" = use PARMEM_STATS_JSON, or no export if that is unset too.
  std::string stats_json_path;
};

class HierRuntime : public rtapi::RuntimeShell<HierOptions> {
 public:
  static constexpr const char* kName = "hier";
  using Options = HierOptions;

  class Ctx {
   public:
    Ctx(const Ctx&) = delete;
    Ctx& operator=(const Ctx&) = delete;

    // Allocate an object with `nptr` pointer fields and `nscalar` i64
    // fields, all zeroed. 16-byte aligned. May run a leaf collection
    // on chunk overflow, so unrooted raw Object* must not be held
    // across calls.
    Object* alloc(std::uint32_t nptr, std::uint32_t nscalar) {
      Object* o = heap_->try_alloc(nptr, nscalar);
      if (__builtin_expect(o == nullptr, 0)) {
        return alloc_slow(nptr, nscalar);
      }
      return o;
    }

    // Initialising store: the object is fresh and unpublished.
    static void init_i64(Object* o, std::uint32_t i, std::int64_t v) {
      o->set_scalar(i, v);
    }
    static void init_ptr(Object* o, std::uint32_t i, Object* v) {
      o->set_ptr_relaxed(i, v);
    }

    // Immutable read: a single load. Correct even through a stale
    // promoted copy, because promotion copies field-for-field and
    // immutable data never changes afterwards.
    static std::int64_t read_i64_imm(const Object* o, std::uint32_t i) {
      return o->scalar(i);
    }

    // Mutable accessors: one forwarding-word check finds the master
    // copy (a promoted object's writes all land there).
    static std::int64_t read_i64_mut(Object* o, std::uint32_t i) {
      return Object::chase(o)->scalar(i);
    }
    static void write_i64(Object* o, std::uint32_t i, std::int64_t v) {
      Object::chase(o)->set_scalar(i, v);
    }
    static Object* read_ptr(Object* o, std::uint32_t i) {
      return Object::chase(o)->ptr(i);
    }

    // Pointer write barrier. Leaf-local targets store directly; stores
    // into an ancestor heap take that heap's lock (coarse mode); and a
    // store that would point DOWN the tree promotes the value's
    // closure into the target heap first.
    void write_ptr(Object* o, std::uint32_t idx, Object* v) {
      o = Object::chase(o);
      if (v != nullptr) {
        v = Object::chase(v);
      }
      if (__builtin_expect(heap_of(o) == heap_, 1)) {
        o->set_ptr_relaxed(idx, v);
        return;
      }
      distant_write_ptr(o, idx, v);
    }

    // Runtime-API publication point: under hierarchical heaps a child's
    // objects flow to the parent by the join-time heap merge, so this
    // is the identity (the zero-promotion story of the paper).
    Object* publish(Object* v) {
      return v != nullptr ? Object::chase(v) : nullptr;
    }

    // The root iterator of this task's leaf collections (see
    // leaf_gc_collect). Roots are this task's own frames PLUS every
    // ancestor's: an ancestor Local CAN be the only reference into this
    // heap (a branch publishes its result into an ancestor's Local, and
    // the object merges up into this heap at an intermediate join).
    // Walking the ancestor chain from a RUNNING task is sound because
    // each ancestor sits blocked in fork2 between spawn and join, and
    // a frame chain's STRUCTURE is only ever mutated by its owner
    // task's thread -- so ancestor chains are frozen for this task's
    // whole lifetime. Slot VALUES can be written concurrently by
    // sibling subtrees publishing into the same ancestor's other
    // Locals (slot accesses are atomic, core/roots.hpp), but a slot
    // holding a pointer into THIS heap was necessarily installed by
    // this task's own subtree, and a running sibling never writes
    // those under the runtime-api publish contract -- so the
    // collector's conditional rewrite (only slots pointing into this
    // heap's from-space) never races a concurrent store.
    auto roots() {
      return [this](auto&& fn) {
        for (Ctx* c = this; c != nullptr; c = c->parent_) {
          for (RootFrame* f = c->frames_; f != nullptr; f = f->prev()) {
            f->for_each_slot(fn);
          }
        }
      };
    }

    // Force a leaf collection now; it always evacuates. A no-op on an
    // empty heap: no stats churn, the live estimate stays, and the
    // chunk-doubling schedule keeps whatever step it had reached.
    void collect_now() {
      leaf_gc_collect(heap_, &rt_->stats_.local(), roots());
    }

    // Force a hierarchy-aware internal collection cycle from this
    // task's safepoint (the caller must hold no raw Object* -- same
    // contract as alloc): pauses the running set and collects every
    // heap holding promoted-into bytes, however busy its owner. A
    // no-op unless internal collection or GC-stress is enabled.
    void collect_internal_now() { rt_->safepoint(/*forced=*/true); }

    HierRuntime& runtime() { return *rt_; }
    Heap* leaf_heap() { return heap_; }
    RootFrame** root_head_ref() { return &frames_; }

    // SpawnedBranch hooks: when internal collection is enabled a branch
    // joins the running set for exactly the span of its execution
    // (entry blocks while a stop is pending; exit wakes a driver
    // waiting on the running count). Otherwise no per-thread setup.
    void branch_enter() {
      if (__builtin_expect(rt_->bell_.enabled(), 0)) {
        rt_->gate_.activate(rt_->pool_.current_index());
      }
    }
    void branch_exit() {
      if (__builtin_expect(rt_->bell_.enabled(), 0)) {
        rt_->gate_.deactivate(rt_->pool_.current_index());
      }
    }

   private:
    friend class HierRuntime;
    friend class CtxRegistry<Ctx>;

    Ctx(HierRuntime* rt, Heap* heap, Ctx* parent = nullptr)
        : rt_(rt),
          heap_(heap),
          parent_(parent),
          mode_(rt->opts_.promotion) {
      if (__builtin_expect(rt_->bell_.enabled(), 0)) {
        rt_->ctxs_.add(this, rt_->pool_.current_index());
      }
    }

    ~Ctx() {
      if (__builtin_expect(rt_->bell_.enabled(), 0)) {
        rt_->ctxs_.remove(this);
      }
    }

    Object* alloc_slow(std::uint32_t nptr, std::uint32_t nscalar) {
      if (__builtin_expect(rt_->bell_.enabled(), 0)) {
        // The allocation slow path is a safepoint: no raw Object* may
        // be held across alloc, so a pending internal collection can
        // relocate while we park (or while we drive it ourselves).
        rt_->safepoint();
      }
      // Budget-triggered, or under GC stress at every safepoint.
      collect_due(heap_, &rt_->stats_.local(), rt_->opts_.gc_min_budget,
                  rt_->opts_.gc_growth_factor, rt_->opts_.gc_stress, roots());
      Object* o;
      try {
        o = heap_->bump_alloc(nptr, nscalar);
      } catch (const OutOfMemory&) {
        // The stop rung sweeps EVERY live heap, deepest first -- join
        // heaps and promoted-into internal heaps included.
        rt_->emergency_collect([this] { collect_now(); },
                               [rt = rt_] { rt->drive_emergency_gc(); });
        o = heap_->bump_alloc(nptr, nscalar);  // retry exactly once
      }
      o->zero_fields();
      return o;
    }

    void distant_write_ptr(Object* o, std::uint32_t idx, Object* v) {
      for (;;) {
        Object* d = Object::chase(o);
        Heap* hd = heap_of(d);
        if (v != nullptr && heap_of(v)->depth() > hd->depth()) {
          promote_and_store(d, idx, v, heap_, mode_, &rt_->stats_.local());
          if (__builtin_expect(rt_->bell_.enabled(), 0)) {
            // Only a doorbell: the caller may legally hold raw
            // pointers across write_ptr, so the collection itself
            // waits for everyone's next allocation/fork safepoint.
            rt_->bell_.ring_if(heap_of(Object::chase(d))->remote_bytes());
          }
          return;
        }
        if (mode_ == PromotionMode::kFineGrained) {
          d->set_ptr(idx, v);
          return;
        }
        {
          std::lock_guard<std::mutex> g(hd->path_lock());
          Object* d2 = Object::chase(d);
          if (heap_of(d2) == hd) {
            d2->set_ptr(idx, v);
            return;
          }
          o = d2;  // target moved up mid-flight; redo against its new heap
        }
      }
    }

    HierRuntime* rt_;
    Heap* heap_;
    // Forking context, or nullptr for the root task. Ancestors are
    // blocked in fork2 for this context's whole lifetime, so the chain
    // is stable; collect_now roots from every frame chain along it.
    Ctx* parent_ = nullptr;
    PromotionMode mode_;
    RootFrame* frames_ = nullptr;
    CtxRegistry<Ctx>::Link reg_;  // written only while registered
  };

  HierRuntime() : HierRuntime(Options{}) {}
  explicit HierRuntime(const Options& opts)
      : RuntimeShell(kName, opts,
                     WorkStealPool::resolved_workers(opts.workers)),
        gate_(workers()),
        ctxs_(workers()),
        // A nonzero join threshold enables the safepoint machinery too
        // (same escalation the budget uses): join collections must root
        // from EVERY task's frames, because a branch may publish its
        // result into an arbitrary ancestor Local -- the single-frame
        // collect_now path would drop such a result during the merge.
        bell_(gate_,
              opts_.gc_stress || opts_.gc_internal_threshold != 0 ||
                  opts_.gc_join_threshold != 0 || chunks_.budget() != 0,
              opts_.gc_stress, opts_.gc_internal_threshold,
              phase::Phase::kInternalGc),
        pool_(opts_.workers) {}

  // Scheduler idle churn (timed-out parks); see WorkStealPool. The
  // serve-harness quiescence test asserts this stays near zero while
  // the runtime sits idle between request bursts.
  std::uint64_t scheduler_idle_wakeups() const {
    return pool_.idle_wakeups();
  }

  // Execute `f(ctx)` as the root task, on the calling thread, with a
  // fresh depth-0 heap that is torn down when f returns.
  template <class F>
  auto run(F&& f) {
    WorkStealPool::Scope scope(&pool_);
    Heap root(nullptr, 0, &chunks_);
    Ctx ctx(this, &root);
    // With internal collection enabled the root task is a member of
    // the running set for the whole run (leaving it only inside fork2
    // joins, like every other task).
    SafepointDoorbell::Member member(bell_, pool_.current_index());
    return f(ctx);
  }

  // Fork-join: split the current leaf heap, run f and g in parallel in
  // fresh child leaves, merge both back (objects keep their
  // addresses), and return {f result, g result}. A void branch yields
  // std::monostate in its pair slot. `roots` documents the parent
  // locals both branches may touch; their slots stay valid because
  // they live in the parent's frames.
  template <class F, class G>
  static auto fork2(Ctx& ctx, std::initializer_list<Local> roots, F&& f,
                    G&& g) {
    (void)roots;
    using RA = rtapi::BranchResult<F, Ctx>;

    HierRuntime* rt = ctx.rt_;
    rt->stats_.local().forks.fetch_add(1, std::memory_order_relaxed);
    const bool sp = rt->bell_.enabled();
    if (__builtin_expect(sp, 0)) {
      rt->fork_safepoint();
    }
    Heap* parent = ctx.heap_;

    Heap heap_a(parent, parent->depth() + 1, &rt->chunks_);
    Heap heap_b(parent, parent->depth() + 1, &rt->chunks_);
    Ctx ctx_a(rt, &heap_a, &ctx);
    Ctx ctx_b(rt, &heap_b, &ctx);

    // Both result channels push a Local onto the PARENT's frame chain
    // (a plain-pointer list stopped-world collections scan), so they
    // are constructed BEFORE the parent leaves the running set below
    // -- a push after deactivation could race a collector already
    // walking the chain. Spawning before deactivating is fine: the
    // parent never blocks until the join.
    rtapi::ResultChannel<Ctx, RA> ch_a(ctx);
    rtapi::SpawnedBranch<Ctx, std::remove_reference_t<G>> task_b(
        &rt->pool_, g, ctx_b, ctx);
    if (__builtin_expect(sp, 0)) {
      rt->fork_deactivate();
    }

    std::exception_ptr err_a;
    ctx_a.branch_enter();
    try {
      ch_a.store(ctx_a, rtapi::invoke_branch(f, ctx_a));
    } catch (...) {
      err_a = std::current_exception();
    }
    ctx_a.branch_exit();
    task_b.join(err_a != nullptr);

    if (__builtin_expect(sp, 0)) {
      rt->fork_exit_reactivate();
    }

    parent->join_children(heap_a, heap_b);
    if ((rt->opts_.gc_join_threshold != 0 &&
         parent->allocated_bytes() >= rt->opts_.gc_join_threshold) ||
        __builtin_expect(rt->opts_.gc_stress, 0)) {
      // Join-time subtree collection: the two-sibling subtree just
      // merged into `parent` is quiesced (both branches joined), so it
      // can be evacuated here -- with parked mutators as a team when
      // gc_parallel_team asks for one. GC-stress forces it at every
      // join. Both trigger conditions imply bell_.enabled() (see
      // the constructor), so the collection always stops the world and
      // roots from EVERY task's frames: results published into
      // arbitrary ancestor Locals survive the merge, which the
      // single-frame collect_now path used to drop.
      assert(sp && "join collection without the safepoint machinery");
      rt->stopped_join_collect(&ctx);
    }

    return task_b.results(err_a, ch_a);
  }

  // Test/debug hook: snapshot every live heap (one per task context;
  // populated only while internal collection or GC-stress is enabled).
  std::vector<Heap*> snapshot_heaps() {
    std::vector<Heap*> heaps;
    ctxs_.for_each([&heaps](Ctx* c) { heaps.push_back(c->heap_); });
    return heaps;
  }

 private:
  // fork2's gated slow paths, kept out of line so the disabled-default
  // fork2 stays compact (the fork row is a measured baseline).
  //
  // Entry -- fork2 is a safepoint of the forking task (no raw Object*
  // is held across it by contract), polled BEFORE the spawn: a spawned
  // branch may already be running, and a stop driven from here would
  // wait for it to reach a safepoint -- forever, if it spins waiting
  // for its sibling (the serve harness's start barrier does).
  __attribute__((noinline)) void fork_safepoint() { safepoint(); }
  // After the spawn the parent leaves the running set: a pending
  // collection must never wait on a task that is blocked in fork2
  // rather than parked. Its heap -- now internal -- and frames stay
  // registered (and scanned) through its Ctx for the whole join.
  __attribute__((noinline)) void fork_deactivate() {
    gate_.deactivate(pool_.current_index());
  }
  // Exit -- reactivating blocks while a stop is pending, so the
  // join-time merges can never race an internal collection: a new stop
  // cannot reach its copying phase until this task parks or
  // deactivates.
  __attribute__((noinline)) void fork_exit_reactivate() {
    gate_.activate(pool_.current_index());
  }

  // Safepoint poll (allocation slow paths, fork2 boundaries): park
  // through someone else's pending stop, or drive a requested internal
  // collection ourselves -- always, when `forced`. The pre-stop victim
  // peek races running mutators, so it reads only atomics.
  void safepoint(bool forced = false) {
    bell_.poll(
        forced, stats_.local(),
        [this](std::size_t thr) {
          bool any = false;
          ctxs_.for_each([&](Ctx* c) {
            any = any || c->heap_->remote_bytes() >= thr;
          });
          return any;
        },
        [this](std::size_t thr) {
          collect_victims([thr](Heap* h) { return h->remote_bytes() >= thr; },
                          /*bill_internal=*/true);
        });
  }

  // Emergency rung of the budget cascade (RuntimeShell::
  // emergency_collect): stop the world and collect EVERY live heap,
  // deepest first. Unlike an internal cycle there is no threshold --
  // the allocation already failed, so all reclaimable garbage is
  // wanted. If another driver's stop is pending, park through it
  // instead: its collections free memory just the same, and our caller
  // retries afterwards.
  void drive_emergency_gc() {
    if (!bell_.enabled()) {
      return;
    }
    StopGuard stop(gate_, stats_.local());
    if (!stop) {
      return;
    }
    collect_victims([](Heap*) { return true; }, /*bill_internal=*/false);
  }

  // The world is stopped: every other member of the running set is
  // parked at a safepoint (holding no raw pointers, by the alloc/fork2
  // contract) and tasks blocked in fork2 are deactivated, so heaps,
  // frames and the registry are all frozen and safe to walk. Collects
  // every non-empty heap `pick` selects, deepest first, so a shallower
  // victim's descendant scan sees the deeper victims' graphs already
  // settled.
  template <class Pick>
  void collect_victims(Pick&& pick, bool bill_internal) {
    std::vector<Ctx*> ctxs;
    std::vector<Heap*> heaps;
    snapshot_registry(&ctxs, &heaps);
    std::vector<Heap*> victims;
    for (Heap* h : heaps) {
      if (h->chunks() != nullptr && pick(h)) {
        victims.push_back(h);
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](Heap* a, Heap* b) { return a->depth() > b->depth(); });
    for (Heap* h : victims) {
      stopped_collect_heap(h, ctxs, heaps, bill_internal);
    }
  }

  void snapshot_registry(std::vector<Ctx*>* ctxs, std::vector<Heap*>* heaps) {
    ctxs_.for_each([&](Ctx* c) {
      ctxs->push_back(c);
      heaps->push_back(c->heap_);
    });
  }

  // Collect one heap on the already-stopped world, rooting from EVERY
  // task's frames plus descendant fields/forwarding words, with up to
  // gc_parallel_team evacuators. `bill_internal` adds the internal_gc_*
  // pair on top of the ordinary gc_* counters. The collector records
  // the bytes it evacuated on `h`, so the owner's next allocation slow
  // path sees the collected live set, not the one before the stop.
  void stopped_collect_heap(Heap* h, const std::vector<Ctx*>& ctxs,
                            const std::vector<Heap*>& heaps,
                            bool bill_internal) {
    auto frame_roots = [&ctxs](auto&& fn) {
      for (Ctx* c : ctxs) {
        for (RootFrame* f = c->frames_; f != nullptr; f = f->prev()) {
          f->for_each_slot(fn);
        }
      }
    };
    const std::size_t live = collect_stopped(
        gate_, chunks_, {h}, opts_.gc_parallel_team,
        &stats_.local(), [&](auto&& fn) {
          detail::internal_gc_emit_roots(h, heaps, frame_roots, fn);
        });
    if (bill_internal) {
      stats_.local().internal_gc_count.fetch_add(1, std::memory_order_relaxed);
      stats_.local().internal_gc_bytes.fetch_add(live,
                                                 std::memory_order_relaxed);
    }
  }

  // Join-time collection of `me`'s just-merged heap on a stopped
  // world: the same pause an internal cycle uses, but the victim is
  // fixed and the all-frames roots make results published into
  // arbitrary ancestor Locals survive. Billed as an ordinary
  // collection, not an internal one.
  void stopped_join_collect(Ctx* me) {
    if (me->heap_->chunks() == nullptr) {
      return;
    }
    StopGuard stop(gate_, stats_.local());
    if (!stop) {
      return;  // parked through a concurrent stop; the next join retries
    }
    // Tags the collection below as a join-GC pause (gc_join kind).
    phase::PhaseScope gc_scope(phase::Phase::kJoinGc);
    std::vector<Ctx*> ctxs;
    std::vector<Heap*> heaps;
    snapshot_registry(&ctxs, &heaps);
    stopped_collect_heap(me->heap_, ctxs, heaps, /*bill_internal=*/false);
  }

  SafepointGate gate_;     // pause/resume of the running set
  CtxRegistry<Ctx> ctxs_;  // live task contexts (bell_.enabled() only)
  SafepointDoorbell bell_;  // internal collection; any stopped collection
  WorkStealPool pool_;  // last member: joins threads before the rest die
};

static_assert(RuntimeLike<HierRuntime>);

}  // namespace parmem
