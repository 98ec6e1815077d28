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
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/failpoint.hpp"
#include "core/gc_internal.hpp"
#include "core/gc_leaf.hpp"
#include "core/gc_parallel.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/profiler.hpp"
#include "core/promote.hpp"
#include "core/roots.hpp"
#include "core/sched.hpp"
#include "core/stats.hpp"
#include "core/stats_json.hpp"
#include "core/trace.hpp"
#include "runtimes/runtime_api.hpp"

namespace parmem {

class HierRuntime {
 public:
  static constexpr const char* kName = "hier";

  struct Options {
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
    // to copy alongside the driver. 0 or 1 keeps them sequential, and
    // so does a stop that finds nobody parked.
    unsigned gc_parallel_team = 0;
    // Hierarchy-aware internal-heap collection (core/gc_internal.hpp):
    // when a promotion pushes a heap's promoted-into bytes past this
    // threshold, the next task to reach a safepoint (allocation slow
    // path or fork2 boundary) pauses the running set and collects every
    // such heap in place -- so promotion chains into a BUSY internal
    // heap no longer accumulate until its owner rejoins. 0 disables.
    std::size_t gc_internal_threshold = 0;
    // GC-stress differential-testing mode: force a leaf collection and
    // a join collection at every safepoint and ring the internal-
    // collection doorbell with a 1-byte threshold, so every collector
    // runs constantly. Checksums must be unchanged under it. Also
    // forced on for every HierRuntime when the PARMEM_GC_STRESS
    // environment variable is set (and not "0").
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

  class Ctx {
   public:
    Ctx(const Ctx&) = delete;
    Ctx& operator=(const Ctx&) = delete;

    // Allocate an object with `nptr` pointer fields and `nscalar` i64
    // fields, all zeroed. 16-byte aligned. May run a leaf collection
    // on chunk overflow, so unrooted raw Object* must not be held
    // across calls.
    Object* alloc(std::uint32_t nptr, std::uint32_t nscalar) {
      std::size_t size = Object::size_bytes(nptr, nscalar);
      char* p = heap_->try_bump(size);
      if (__builtin_expect(p == nullptr, 0)) {
        return alloc_slow(nptr, nscalar);
      }
      Object* o = reinterpret_cast<Object*>(p);
      o->init_header(nptr, nscalar);
      o->zero_fields();
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
    void collect_internal_now() {
      if (!rt_->sp_enabled_) {
        return;
      }
      if (rt_->gate_.pending()) {
        rt_->gate_.park();
        return;
      }
      rt_->drive_internal_gc(/*forced=*/true);
    }

    HierRuntime& runtime() { return *rt_; }
    Heap* leaf_heap() { return heap_; }
    RootFrame** root_head_ref() { return &frames_; }

    // SpawnedBranch hooks: when internal collection is enabled a branch
    // joins the running set for exactly the span of its execution
    // (entry blocks while a stop is pending; exit wakes a driver
    // waiting on the running count). Otherwise no per-thread setup.
    void branch_enter() {
      if (__builtin_expect(rt_->sp_enabled_, 0)) {
        rt_->gate_.activate(rt_->pool_.current_index());
      }
    }
    void branch_exit() {
      if (__builtin_expect(rt_->sp_enabled_, 0)) {
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
      if (__builtin_expect(rt_->sp_enabled_, 0)) {
        rt_->ctxs_.add(this, rt_->pool_.current_index());
      }
    }

    ~Ctx() {
      if (__builtin_expect(rt_->sp_enabled_, 0)) {
        rt_->ctxs_.remove(this);
      }
    }

    Object* alloc_slow(std::uint32_t nptr, std::uint32_t nscalar) {
      if (__builtin_expect(rt_->sp_enabled_, 0)) {
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
        emergency_collect();
        o = heap_->bump_alloc(nptr, nscalar);  // retry exactly once
      }
      o->zero_fields();
      return o;
    }

    // The budget (or an injected chunk fault) refused an allocation:
    // climb the collection cascade, cheapest rung first.
    //   1. this task's own leaf (no coordination needed);
    //   2. with the safepoint machinery on, a stopped-world sweep of
    //      EVERY live heap, deepest first -- join heaps and promoted-
    //      into internal heaps included.
    // The caller then retries the allocation once; a second failure is
    // the program's real OOM.
    void emergency_collect() {
      const std::uint64_t trace_t0 = trace::now_ns();
      const std::uint64_t live_before = rt_->chunks_.live_bytes();
      rt_->stats_.local().emergency_gcs.fetch_add(1, std::memory_order_relaxed);
      collect_now();
      if (__builtin_expect(rt_->sp_enabled_, 0)) {
        rt_->drive_emergency_gc();
      }
      // One event spanning the whole cascade; its constituent
      // collections also recorded individually above.
      trace::record_emergency(trace_t0, trace::now_ns() - trace_t0,
                              live_before);
    }

    void distant_write_ptr(Object* o, std::uint32_t idx, Object* v) {
      for (;;) {
        Object* d = Object::chase(o);
        Heap* hd = heap_of(d);
        if (v != nullptr && heap_of(v)->depth() > hd->depth()) {
          promote_and_store(d, idx, v, heap_, mode_, &rt_->stats_.local());
          if (__builtin_expect(rt_->sp_enabled_, 0)) {
            // Only a doorbell: the caller may legally hold raw
            // pointers across write_ptr, so the collection itself
            // waits for everyone's next allocation/fork safepoint.
            rt_->note_internal_pressure(heap_of(Object::chase(d)));
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
      : opts_(opts),
        pool_(opts.workers),
        gate_(pool_.workers()),
        ctxs_(pool_.workers()) {
    if (!opts_.gc_stress && gc_stress_env()) {
      opts_.gc_stress = true;
    }
    if (opts_.gc_internal_threshold == 0) {
      opts_.gc_internal_threshold = internal_gc_threshold_env();
    }
    env::install_failpoints_env();
    trace::init_from_env();
    profiler::init_from_env();
    profiler::note_stack_hi();
    chunks_.set_budget(effective_heap_budget(opts_.heap_budget_bytes));
    if (!opts_.failpoints.empty()) {
      failpoint::install(opts_.failpoints);
    }
    // A nonzero join threshold enables the safepoint machinery too
    // (same escalation the budget uses): join collections must root
    // from EVERY task's frames, because a branch may publish its
    // result into an arbitrary ancestor Local -- the single-frame
    // collect_now path would drop such a result during the merge.
    sp_enabled_ = opts_.gc_stress || opts_.gc_internal_threshold != 0 ||
                  opts_.gc_join_threshold != 0 || chunks_.budget() != 0;
  }
  HierRuntime(const HierRuntime&) = delete;
  HierRuntime& operator=(const HierRuntime&) = delete;

  ~HierRuntime() {
    StatsSnapshot snap;
    snap.stats = stats_.snapshot();
    snap.live_bytes = chunks_.live_bytes();
    snap.peak_bytes = chunks_.peak_bytes();
    stats_json::write(stats_json::resolve_path(opts_.stats_json_path), kName,
                      snap);
  }

  const Options& options() const { return opts_; }
  unsigned workers() const { return pool_.workers(); }
  Stats stats() const { return stats_.snapshot(); }
  std::size_t peak_bytes() const { return chunks_.peak_bytes(); }
  std::size_t live_bytes() const { return chunks_.live_bytes(); }
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
    struct ActiveScope {
      HierRuntime* rt;
      explicit ActiveScope(HierRuntime* r) : rt(r) {
        if (rt->sp_enabled_) {
          rt->gate_.activate(rt->pool_.current_index());
        }
      }
      ~ActiveScope() {
        if (rt->sp_enabled_) {
          rt->gate_.deactivate(rt->pool_.current_index());
        }
      }
      ActiveScope(const ActiveScope&) = delete;
      ActiveScope& operator=(const ActiveScope&) = delete;
    } act(this);
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
    using RB = rtapi::BranchResult<G, Ctx>;

    HierRuntime* rt = ctx.rt_;
    rt->stats_.local().forks.fetch_add(1, std::memory_order_relaxed);
    const bool sp = rt->sp_enabled_;
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
      // join. Both trigger conditions imply sp_enabled_ (see
      // the constructor), so the collection always stops the world and
      // roots from EVERY task's frames: results published into
      // arbitrary ancestor Locals survive the merge, which the
      // single-frame collect_now path used to drop.
      assert(sp && "join collection without the safepoint machinery");
      rt->stopped_join_collect(&ctx);
    }

    if (err_a) {
      std::rethrow_exception(err_a);
    }
    if (task_b.error()) {
      std::rethrow_exception(task_b.error());
    }
    return std::pair<RA, RB>(ch_a.take(), task_b.take_result());
  }

  // Test/debug hook: snapshot every live heap (one per task context;
  // populated only while internal collection or GC-stress is enabled).
  std::vector<Heap*> snapshot_heaps() {
    std::vector<Heap*> heaps;
    ctxs_.for_each([&heaps](Ctx* c) { heaps.push_back(c->heap_); });
    return heaps;
  }

 private:
  static bool gc_stress_env() {
    static const bool on = [] {
      const char* v = std::getenv("PARMEM_GC_STRESS");
      return v != nullptr && v[0] != '\0' &&
             !(v[0] == '0' && v[1] == '\0');
    }();
    return on;
  }

  // PARMEM_INTERNAL_GC_THRESHOLD=bytes: force internal-heap collection
  // on for runtimes whose Options leave it off -- lets the profiling /
  // flame-diff workflow (scripts/flamediff.py) perturb the policy on an
  // unmodified driver binary.
  static std::size_t internal_gc_threshold_env() {
    static const std::size_t bytes = [] {
      const char* v = std::getenv("PARMEM_INTERNAL_GC_THRESHOLD");
      if (v == nullptr || v[0] == '\0') {
        return std::size_t{0};
      }
      return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    }();
    return bytes;
  }

  std::size_t effective_internal_threshold() const {
    return opts_.gc_stress ? 1 : opts_.gc_internal_threshold;
  }

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

  // Promotion-path doorbell (the promoter may hold raw pointers, so
  // never collect here): remember that some heap crossed the
  // threshold; the next safepoint anyone reaches drives the cycle.
  void note_internal_pressure(Heap* h) {
    std::size_t thr = effective_internal_threshold();
    if (thr != 0 && h->remote_bytes() >= thr) {
      internal_doorbell_.store(true, std::memory_order_relaxed);
    }
  }

  // Safepoint poll (allocation slow paths, fork2 boundaries): park
  // through someone else's pending stop, or drive a requested internal
  // collection ourselves.
  void safepoint() {
    if (opts_.gc_stress) {
      internal_doorbell_.store(true, std::memory_order_relaxed);
    }
    if (gate_.pending()) {
      gate_.park();
      return;
    }
    if (internal_doorbell_.load(std::memory_order_relaxed)) {
      drive_internal_gc(/*forced=*/false);
    }
  }

  // Pre-stop peek, racing running mutators: may only read atomics (the
  // authoritative victim scan reruns on the stopped world).
  bool any_internal_victims(std::size_t thr) {
    bool any = false;
    ctxs_.for_each([&](Ctx* c) {
      any = any || c->heap_->remote_bytes() >= thr;
    });
    return any;
  }

  void drive_internal_gc(bool forced) {
    std::size_t thr = forced ? 1 : effective_internal_threshold();
    if (thr == 0) {
      internal_doorbell_.store(false, std::memory_order_relaxed);
      return;
    }
    if (!forced && !any_internal_victims(thr)) {
      // Under stress still run a full (victimless) stop periodically so
      // the pause protocol itself is exercised on pure programs.
      bool force_stop =
          opts_.gc_stress &&
          stress_tick_.fetch_add(1, std::memory_order_relaxed) % 32 == 0;
      if (!force_stop) {
        internal_doorbell_.store(false, std::memory_order_relaxed);
        return;
      }
    }
    StopGuard stop(gate_, stats_.local());
    if (!stop) {
      return;  // parked through another driver's stop instead
    }
    // The internal-GC phase tag makes the collections run below record
    // as gc_internal pauses (trace::pause_kind_from_phase).
    phase::PhaseScope gc_scope(phase::Phase::kInternalGc);
    internal_doorbell_.store(false, std::memory_order_relaxed);
    collect_victims([thr](Heap* h) { return h->remote_bytes() >= thr; },
                    /*bill_internal=*/true);
  }

  // Emergency rung of the budget cascade (Ctx::emergency_collect): stop
  // the world and collect EVERY live heap, deepest first. Unlike an
  // internal cycle there is no threshold -- the allocation already
  // failed, so all reclaimable garbage is wanted. If another driver's
  // stop is pending, park through it instead: its collections free
  // memory just the same, and our caller retries afterwards.
  void drive_emergency_gc() {
    StopGuard stop(gate_, stats_.local());
    if (!stop) {
      return;
    }
    internal_doorbell_.store(false, std::memory_order_relaxed);
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
        gate_, chunks_, {h}, std::max(1u, opts_.gc_parallel_team),
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

  Options opts_;
  bool sp_enabled_ = false;  // internal collection or GC-stress on
  ChunkPool chunks_;
  ShardedStats stats_{WorkStealPool::resolved_workers(opts_.workers)};
  WorkStealPool pool_;
  SafepointGate gate_;     // pause/resume of the running set
  CtxRegistry<Ctx> ctxs_;  // live task contexts (sp_enabled_ only)
  std::atomic<bool> internal_doorbell_{false};
  std::atomic<std::uint64_t> stress_tick_{0};
};

static_assert(RuntimeLike<HierRuntime>);

}  // namespace parmem
