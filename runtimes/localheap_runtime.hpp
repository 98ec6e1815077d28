// Manticore-like local heaps ("manticore" in fig10 and the promotion-
// volume table): a two-level hierarchy with one GLOBAL heap (depth 0)
// and one persistent LOCAL heap per worker (depth 1).
//
// The defining discipline -- the contrast the hierarchical runtime is
// measured against -- is that data escaping a worker is PROMOTED
// (deep-copied) into the global heap at the escape point:
//
//   * fork2 promotes the closures of its documented root Locals at
//     every spawn (whether or not the branch is ever stolen);
//   * publish() promotes a branch's result before it is handed to the
//     parent, because the parent may live on another worker;
//   * the write barrier promotes any local value stored into a
//     non-local object.
//
// This keeps local heaps worker-private (they can be collected by the
// standard leaf Cheney collector without stopping anyone), at the cost
// of copying on the order of the input size even for pure programs --
// exactly the paper's Section 4.4 measurement.
//
// The global heap is collected by a stopped-world Cheney cycle (the
// Doligez-Leroy-Gonthier "major collection" shape all local-heap
// systems eventually grow): gc_global_threshold rings a doorbell once
// that many bytes have been promoted since the last cycle, and the
// next safepoint anyone reaches stops the running set through the
// shared SafepointGate and collects depth 0. Roots are every worker's
// frame chain PLUS edges discovered by scanning every worker's local
// heap -- a local object may legally point down into global after a
// promotion, and a stale promoted copy's forwarding word keeps its
// global master alive. That enumeration is exactly the internal-
// collection root discovery (core/gc_internal.hpp) with target =
// global and the local heaps as the descendant set. Parked mutators
// are recruited as evacuators through the gate's team handoff
// (core/gc_parallel.hpp collect_stopped). With the threshold off (the
// default), the global heap remains a run()-scoped allocation sink,
// preserving the paper-baseline behaviour fig10 measures.
//
// All promotions serialize on the global heap's lock, mirroring
// Manticore's stop-less but serialized global-heap growth.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
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

class LhRuntime {
 public:
  static constexpr const char* kName = "localheap";

  struct Options {
    unsigned workers = 0;  // 0 = one per hardware thread
    std::size_t gc_min_budget = std::size_t{4} << 20;  // per local heap
    double gc_growth_factor = 8.0;
    // Collect the global heap once at least this many bytes have been
    // promoted into it since the last cycle. A doorbell, like
    // HierRuntime's gc_internal_threshold: promotion only rings it,
    // and the next safepoint anyone reaches drives the stopped-world
    // collection. 0 = PARMEM_GC_GLOBAL_THRESHOLD, else disabled (the
    // global heap reverts to a run()-scoped allocation sink).
    std::size_t gc_global_threshold = 0;
    // Force a global-collection cycle at every safepoint (also set by
    // PARMEM_GC_STRESS); the differential harness runs the whole
    // suite under it.
    bool gc_stress = false;
    // Hard cap on pool bytes; 0 = PARMEM_HEAP_BUDGET, else unlimited.
    // Exceeding it emergency-collects the worker's local heap, then
    // the global heap on a stopped world, and retries once before
    // parmem::OutOfMemory reaches the program.
    std::size_t heap_budget_bytes = 0;
    std::string failpoints;  // e.g. "chunk_alloc=fail@3"; "" = none
    // Append one JSON line of counters + pause-histogram summaries to
    // this file at runtime destruction; "" = PARMEM_STATS_JSON or none.
    std::string stats_json_path;
  };

 private:
  // Per-worker persistent state. All task contexts executing on a
  // worker share its local heap and its root-frame chain (execution on
  // one worker is strictly nested, so frames keep stack discipline).
  struct WorkerState {
    Heap heap;
    RootFrame* frames = nullptr;
    std::size_t gc_budget;

    WorkerState(Heap* global, ChunkPool* pool, std::size_t budget)
        : heap(global, 1, pool), gc_budget(budget) {}
  };

 public:
  class Ctx {
   public:
    Ctx(const Ctx&) = delete;
    Ctx& operator=(const Ctx&) = delete;

    Object* alloc(std::uint32_t nptr, std::uint32_t nscalar) {
      std::size_t size = Object::size_bytes(nptr, nscalar);
      char* p = w_->heap.try_bump(size);
      if (__builtin_expect(p == nullptr, 0)) {
        return alloc_slow(nptr, nscalar);
      }
      Object* o = reinterpret_cast<Object*>(p);
      o->init_header(nptr, nscalar);
      o->zero_fields();
      return o;
    }

    static void init_i64(Object* o, std::uint32_t i, std::int64_t v) {
      o->set_scalar(i, v);
    }
    static void init_ptr(Object* o, std::uint32_t i, Object* v) {
      o->set_ptr_relaxed(i, v);
    }

    // Promotion leaves forwarding pointers behind, so mutable accessors
    // chase to the master copy, exactly as under hierarchical heaps.
    static std::int64_t read_i64_imm(const Object* o, std::uint32_t i) {
      return o->scalar(i);
    }
    static std::int64_t read_i64_mut(Object* o, std::uint32_t i) {
      return Object::chase(o)->scalar(i);
    }
    static void write_i64(Object* o, std::uint32_t i, std::int64_t v) {
      Object::chase(o)->set_scalar(i, v);
    }
    static Object* read_ptr(Object* o, std::uint32_t i) {
      return Object::chase(o)->ptr(i);
    }

    // Pointer write barrier: stores within the worker's own local heap
    // are free; any other store first promotes a local value to the
    // global heap (a local object must never be reachable from outside
    // its worker).
    void write_ptr(Object* o, std::uint32_t idx, Object* v) {
      o = Object::chase(o);
      if (v != nullptr) {
        v = Object::chase(v);
      }
      if (__builtin_expect(heap_of(o) == &w_->heap, 1)) {
        o->set_ptr_relaxed(idx, v);
        return;
      }
      if (v != nullptr && heap_of(v)->depth() > 0) {
        v = rt_->promote_to_global(v);
      }
      o->set_ptr(idx, v);
    }

    // A branch result escapes its worker: promote its closure.
    Object* publish(Object* v) {
      if (v == nullptr) {
        return nullptr;
      }
      v = Object::chase(v);
      if (heap_of(v)->depth() == 0) {
        return v;
      }
      return rt_->promote_to_global(v);
    }

    void collect_now() {
      WorkerState* w = w_;
      std::size_t live = leaf_gc_collect(&w->heap, &rt_->stats_.local(),
                                         [w](auto&& fn) {
                                           for (RootFrame* f = w->frames;
                                                f != nullptr; f = f->prev()) {
                                             f->for_each_slot(fn);
                                           }
                                         });
      auto scaled = static_cast<std::size_t>(
          static_cast<double>(live) * rt_->opts_.gc_growth_factor);
      w->gc_budget = scaled > rt_->opts_.gc_min_budget
                         ? scaled
                         : rt_->opts_.gc_min_budget;
    }

    // Force a global-heap collection cycle from this task's safepoint
    // (the caller must hold no raw Object* -- same contract as alloc).
    // A no-op unless the safepoint machinery is enabled (a threshold,
    // a heap budget, or GC-stress).
    void collect_global_now() {
      if (!rt_->sp_enabled_) {
        return;
      }
      if (rt_->gate_.pending()) {
        rt_->gate_.park();
        return;
      }
      rt_->drive_global_gc(/*forced=*/true);
    }

    LhRuntime& runtime() { return *rt_; }
    Heap* leaf_heap() { return &w_->heap; }
    RootFrame** root_head_ref() { return &w_->frames; }

    // SpawnedBranch hooks: a branch allocates from whichever worker's
    // heap actually executes it, bound here at branch start. With the
    // global collector on it also joins the running set for exactly
    // the span of its execution (entry blocks while a stop is pending;
    // exit wakes a driver waiting on the running count).
    void branch_enter() {
      bind();
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
    friend class LhRuntime;

    explicit Ctx(LhRuntime* rt) : rt_(rt) {}

    // A task context runs entirely on one worker; bind() pins it to the
    // executing worker's heap at branch start.
    void bind() {
      w_ = rt_->workers_[rt_->pool_.current_index()].get();
    }

    Object* alloc_slow(std::uint32_t nptr, std::uint32_t nscalar) {
      if (__builtin_expect(rt_->sp_enabled_, 0)) {
        // The allocation slow path is a safepoint: no raw Object* may
        // be held across alloc, so a pending global collection can
        // relocate while we park (or while we drive it ourselves).
        rt_->safepoint();
        if (rt_->opts_.gc_stress) {
          collect_now();  // stress: leaf collection at every safepoint
        }
      }
      if (w_->heap.chunk_bytes() >= w_->gc_budget) {
        collect_now();
      }
      Object* o;
      try {
        o = w_->heap.bump_alloc(nptr, nscalar);
      } catch (const OutOfMemory&) {
        emergency_collect();
        o = w_->heap.bump_alloc(nptr, nscalar);  // retry exactly once
      }
      o->zero_fields();
      return o;
    }

    // The budget (or an injected chunk fault) refused an allocation:
    // climb the cascade, cheapest rung first -- this worker's own
    // local heap (no coordination needed), then, with the safepoint
    // machinery on, a stopped-world collection of the global heap.
    // (Other workers' locals stay untouched: they are bounded by their
    // own budgets, and the reclaimable mass of this design sits in the
    // promotion sink.) The caller retries the allocation once; a
    // second failure is the program's real OOM.
    void emergency_collect() {
      const std::uint64_t trace_t0 = trace::now_ns();
      const std::uint64_t live_before = rt_->chunks_.live_bytes();
      rt_->stats_.local().emergency_gcs.fetch_add(1,
                                                  std::memory_order_relaxed);
      collect_now();
      if (__builtin_expect(rt_->sp_enabled_, 0)) {
        rt_->drive_emergency_gc();
      }
      // One event spanning the whole cascade; its constituent
      // collections also recorded individually above.
      trace::record_emergency(trace_t0, trace::now_ns() - trace_t0,
                              live_before);
    }

    LhRuntime* rt_;
    WorkerState* w_ = nullptr;
  };

  LhRuntime() : LhRuntime(Options{}) {}
  explicit LhRuntime(const Options& opts)
      : opts_(opts),
        global_(nullptr, 0, &chunks_),
        pool_(opts.workers) {
    if (!opts_.gc_stress && gc_stress_env()) {
      opts_.gc_stress = true;
    }
    if (opts_.gc_global_threshold == 0) {
      opts_.gc_global_threshold = global_gc_threshold_env();
    }
    env::install_failpoints_env();
    trace::init_from_env();
    profiler::init_from_env();
    profiler::note_stack_hi();
    chunks_.set_budget(effective_heap_budget(opts_.heap_budget_bytes));
    if (!opts_.failpoints.empty()) {
      failpoint::install(opts_.failpoints);
    }
    // A heap budget enables the safepoint machinery too: the emergency
    // cascade's global rung needs the gate.
    sp_enabled_ = opts_.gc_stress || opts_.gc_global_threshold != 0 ||
                  chunks_.budget() != 0;
    workers_.reserve(pool_.workers());
    for (unsigned i = 0; i < pool_.workers(); ++i) {
      workers_.push_back(std::make_unique<WorkerState>(
          &global_, &chunks_, opts_.gc_min_budget));
    }
  }
  LhRuntime(const LhRuntime&) = delete;
  LhRuntime& operator=(const LhRuntime&) = delete;

  ~LhRuntime() {
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
  // Scheduler idle churn (timed-out parks); see WorkStealPool.
  std::uint64_t scheduler_idle_wakeups() const {
    return pool_.idle_wakeups();
  }

  template <class F>
  auto run(F&& f) {
    WorkStealPool::Scope scope(&pool_);
    Ctx ctx(this);
    ctx.bind();
    // Program end still drops every heap wholesale, so back-to-back
    // runs (bench_common::measure) never accumulate state -- but with
    // gc_global_threshold set it is a backstop, not the only reclaim:
    // the global heap is collected DURING the run. Results must be
    // scalars by teardown either way.
    struct Teardown {
      LhRuntime* rt;
      ~Teardown() {
        for (auto& w : rt->workers_) {
          w->heap.release_all_chunks();
          w->gc_budget = rt->opts_.gc_min_budget;
        }
        rt->global_.release_all_chunks();
        rt->global_.reset_remote_bytes();
      }
    } teardown{this};
    // With the global collector on, the root task is a member of the
    // running set for the whole run (leaving it only inside fork2
    // joins, like every other task). Declared after Teardown so the
    // task deactivates before the heaps are dropped.
    struct ActiveScope {
      LhRuntime* rt;
      explicit ActiveScope(LhRuntime* r) : rt(r) {
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

  template <class F, class G>
  static auto fork2(Ctx& ctx, std::initializer_list<Local> roots, F&& f,
                    G&& g) {
    using RA = rtapi::BranchResult<F, Ctx>;
    using RB = rtapi::BranchResult<G, Ctx>;

    LhRuntime* rt = ctx.rt_;
    rt->stats_.local().forks.fetch_add(1, std::memory_order_relaxed);

    const bool sp = rt->sp_enabled_;
    if (__builtin_expect(sp, 0)) {
      // fork2 is a safepoint of the forking task (no raw Object* is
      // held across it by contract): handle a pending global
      // collection BEFORE the promotion loop pins master pointers.
      rt->safepoint();
    }

    // Spawn-time promotion: the spawned computation (and, symmetrically,
    // the continuation) may run on any worker, so everything its
    // closure can reach escapes NOW. This is the cost fig10's manticore
    // columns and tab_promotion_volume quantify.
    //
    // Write the slot only if promotion moved the value: a slot that is
    // visible to concurrently running relatives was already promoted at
    // the fork where the sharing began (it is global, so publish is the
    // identity here), and skipping the dead store keeps the concurrent
    // re-promotions in nested forks read-only on the slot.
    for (const Local& l : roots) {
      if (Object* p = l.get()) {
        Object* m = ctx.publish(p);
        if (m != p) {
          l.set(m);
        }
      }
    }

    // Both result channels register their Locals on the parent's frame
    // chain HERE, while the parent is still active: from now until the
    // join returns, the chain's structure is fixed, so a stopped-world
    // driver may scan it while this task sits deactivated in the join.
    rtapi::ResultChannel<Ctx, RA> ch_a(ctx);
    Ctx ctx_b(rt);
    rtapi::SpawnedBranch<Ctx, std::remove_reference_t<G>> task_b(
        &rt->pool_, g, ctx_b, ctx);

    // The left branch is the continuation: it stays on this worker and
    // shares the parent's local heap, so the parent context serves it
    // (and remains in the running set while it runs).
    std::exception_ptr err_a;
    try {
      ch_a.store(ctx, rtapi::invoke_branch(f, ctx));
    } catch (...) {
      err_a = std::current_exception();
    }

    if (__builtin_expect(sp, 0)) {
      // Leave the running set for the join: a pending global
      // collection must never wait on a task that is blocked in fork2
      // rather than parked. Reactivation blocks while a stop is
      // pending, so post-join reads cannot race a collection.
      rt->fork_enter_safepoint();
    }
    task_b.join(err_a != nullptr);
    if (__builtin_expect(sp, 0)) {
      rt->fork_exit_reactivate();
    }

    // No join-time heap merge: locals stay put; anything the parent
    // needs was published (promoted) by the branches.
    if (err_a) {
      std::rethrow_exception(err_a);
    }
    if (task_b.error()) {
      std::rethrow_exception(task_b.error());
    }
    return std::pair<RA, RB>(ch_a.take(), task_b.take_result());
  }

 private:
  friend class Ctx;

  static bool gc_stress_env() {
    static const bool on = [] {
      const char* v = std::getenv("PARMEM_GC_STRESS");
      return v != nullptr && v[0] != '\0' &&
             !(v[0] == '0' && v[1] == '\0');
    }();
    return on;
  }

  // PARMEM_GC_GLOBAL_THRESHOLD=bytes: force global collection on for
  // runtimes whose Options leave it off -- lets the profiling /
  // flame-diff workflow perturb the policy on an unmodified driver.
  static std::size_t global_gc_threshold_env() {
    static const std::size_t bytes = [] {
      const char* v = std::getenv("PARMEM_GC_GLOBAL_THRESHOLD");
      if (v == nullptr || v[0] == '\0') {
        return std::size_t{0};
      }
      return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    }();
    return bytes;
  }

  Object* promote_to_global(Object* v) {
    // Same fault discipline as promote_and_store (this path bypasses
    // it): the injected promote fault fires before any mutation, and
    // the copy loop itself is a non-unwindable window -- once the
    // first set_fwd publishes, abandoning the closure would leave
    // global objects with un-lifted local fields.
    if (__builtin_expect(
            !failpoint::gc_exempt() &&
                failpoint::triggered(failpoint::Site::kPromoteCopy),
            0)) {
      throw OutOfMemory("promote_copy", 0, chunks_.live_bytes(),
                        chunks_.budget(), chunks_.peak_bytes());
    }
    failpoint::GcAllocScope copy_scope;
    phase::PhaseScope promo_scope(phase::Phase::kPromotion);
    const bool traced = trace::ring_enabled();
    const std::uint64_t trace_t0 = traced ? trace::now_ns() : 0;
    detail::PromoteResult res;
    {
      std::lock_guard<std::mutex> g(global_.path_lock());
      res = detail::promote_coarse_locked(v, &global_);
    }
    if (res.objects != 0) {
      stats_.local().promotions.fetch_add(1, std::memory_order_relaxed);
      stats_.local().promoted_objects.fetch_add(res.objects,
                                        std::memory_order_relaxed);
      stats_.local().promoted_bytes.fetch_add(res.bytes, std::memory_order_relaxed);
      // Promoted-since-last-collect accounting drives the global-GC
      // doorbell (the promoter may hold raw pointers, so only ring the
      // bell here -- the next safepoint anyone reaches collects).
      global_.note_remote_bytes(res.bytes);
      if (__builtin_expect(sp_enabled_, 0)) {
        note_global_pressure();
      }
    }
    if (traced) {
      trace::record_promotion(trace_t0, trace::now_ns() - trace_t0,
                              res.bytes);
    }
    return res.master;
  }

  std::size_t effective_global_threshold() const {
    return opts_.gc_stress ? 1 : opts_.gc_global_threshold;
  }

  void note_global_pressure() {
    std::size_t thr = effective_global_threshold();
    if (thr != 0 && global_.remote_bytes() >= thr) {
      global_doorbell_.store(true, std::memory_order_relaxed);
    }
  }

  // fork2's gated slow paths, kept out of line so the disabled-default
  // fork2 stays compact (the fork row is a measured baseline).
  __attribute__((noinline)) void fork_enter_safepoint() {
    safepoint();
    gate_.deactivate(pool_.current_index());
  }
  __attribute__((noinline)) void fork_exit_reactivate() {
    gate_.activate(pool_.current_index());
  }

  // Safepoint poll (allocation slow paths, fork2 boundaries): park
  // through someone else's pending stop, or drive a requested global
  // collection ourselves.
  void safepoint() {
    if (opts_.gc_stress) {
      global_doorbell_.store(true, std::memory_order_relaxed);
    }
    if (gate_.pending()) {
      gate_.park();
      return;
    }
    if (global_doorbell_.load(std::memory_order_relaxed)) {
      drive_global_gc(/*forced=*/false);
    }
  }

  void drive_global_gc(bool forced) {
    std::size_t thr = forced ? 1 : effective_global_threshold();
    if (thr == 0) {
      global_doorbell_.store(false, std::memory_order_relaxed);
      return;
    }
    if (!forced && global_.remote_bytes() < thr) {
      // Under stress still run a full (possibly empty) stop
      // periodically so the pause protocol itself is exercised on
      // non-promoting programs.
      bool force_stop =
          opts_.gc_stress &&
          stress_tick_.fetch_add(1, std::memory_order_relaxed) % 32 == 0;
      if (!force_stop) {
        global_doorbell_.store(false, std::memory_order_relaxed);
        return;
      }
    }
    StopGuard stop(gate_, stats_.local());
    if (!stop) {
      return;  // parked through another driver's stop instead
    }
    // The global-GC phase tag makes the collection below record as a
    // gc_global pause (trace::pause_kind_from_phase).
    phase::PhaseScope gc_scope(phase::Phase::kGlobalGc);
    global_doorbell_.store(false, std::memory_order_relaxed);
    collect_global_stopped();
  }

  // Emergency rung of the budget cascade (Ctx::emergency_collect). If
  // another driver's stop is pending, the stop parks through it
  // instead: its collection frees memory just the same, and the caller
  // retries.
  void drive_emergency_gc() { drive_global_gc(/*forced=*/true); }

  // Collect the global heap. Precondition: the world is stopped --
  // every other member of the running set is parked at a safepoint or
  // deactivated into a fork2 join, holding no raw Object* by the
  // alloc/fork2 contract -- so worker frames and local heaps are
  // frozen and safe to walk from this thread.
  //
  // Roots into depth 0 are (1) every worker's frame chain (any Local
  // may hold a promoted pointer) and (2) edges found by scanning every
  // worker's LOCAL heap: a local object may point down into global
  // after promotion, and a stale promoted copy's forwarding word keeps
  // its master alive (and must be rewritten when the master moves).
  // That is exactly the internal-collection root discovery with
  // target = global_ and the local heaps as the descendant set. Every
  // parked mutator may be recruited as an evacuator.
  void collect_global_stopped() {
    if (global_.chunks() == nullptr) {
      global_.reset_remote_bytes();
      return;
    }
    std::vector<Heap*> locals;
    locals.reserve(workers_.size());
    for (auto& w : workers_) {
      locals.push_back(&w->heap);
    }
    auto each_root = [&](auto&& fn) {
      auto frame_roots = [&](auto&& slot_fn) {
        for (auto& w : workers_) {
          for (RootFrame* f = w->frames; f != nullptr; f = f->prev()) {
            f->for_each_slot(slot_fn);
          }
        }
      };
      detail::internal_gc_emit_roots(&global_, locals, frame_roots, fn);
    };
    const std::size_t live =
        collect_stopped(gate_, chunks_, &global_, pool_.workers(),
                        &stats_.local(), each_root);
    global_.reset_remote_bytes();
    stats_.local().global_gc_count.fetch_add(1, std::memory_order_relaxed);
    stats_.local().global_gc_bytes.fetch_add(live, std::memory_order_relaxed);
    // The from-space chunks just released are the bulk of the pool's
    // free list after a big cycle; keep only enough pooled headroom
    // for the next cycle's to-space (~ current handed-out bytes) and
    // return the rest to the OS. Without this the pool pins steady
    // RSS at the sink's all-time high-water even though every cycle
    // empties it.
    chunks_.trim(chunks_.live_bytes());
  }

  Options opts_;
  bool sp_enabled_ = false;  // threshold, budget, or GC-stress on
  ChunkPool chunks_;
  ShardedStats stats_{WorkStealPool::resolved_workers(opts_.workers)};
  Heap global_;  // depth 0: the shared promotion target
  std::vector<std::unique_ptr<WorkerState>> workers_;  // depth-1 local heaps
  SafepointGate gate_{WorkStealPool::resolved_workers(opts_.workers)};
  std::atomic<bool> global_doorbell_{false};
  std::atomic<std::uint64_t> stress_tick_{0};
  WorkStealPool pool_;  // last member: joins threads before heaps die
};

static_assert(RuntimeLike<LhRuntime>);

}  // namespace parmem
