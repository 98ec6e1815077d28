// Spoonhower-style parallel baseline ("mlton-spoonhower" in
// fig10-fig13): every task bump-allocates into its own buffer of one
// logically shared flat heap, there is no promotion and no read/write
// barrier, and collection is STOP-THE-WORLD:
//
//   the task that trips the shared budget stops the world through the
//   shared SafepointGate (core/sched.hpp) -- every other RUNNING task
//   parks at a safepoint (its alloc slow path; tasks blocked in a
//   fork2 join are deactivated and need not park) -- merges all
//   allocation buffers into one heap, and evacuates it with
//   collect_stopped (core/gc_parallel.hpp): the parked mutators are
//   recruited as the evacuation team, so the pause puts every stopped
//   MUTATOR to work instead of idling it. Pool workers with no task to
//   run stay asleep in the scheduler and are not recruited, so a
//   serial program phase (or workers = 1) collects with the sequential
//   collector from core/gc_leaf.hpp.
//
// The fast paths are as cheap as the sequential runtime's (that is the
// point of this baseline), and the fork path is lock-free too:
// entering/leaving the running set is the gate's one atomic add on a
// per-worker count plus one flag check, and context registration is a
// per-worker intrusive list under a per-worker spinlock (CtxRegistry).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>

#include "core/failpoint.hpp"
#include "core/gc_parallel.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/profiler.hpp"
#include "core/roots.hpp"
#include "core/sched.hpp"
#include "core/stats.hpp"
#include "core/stats_json.hpp"
#include "core/trace.hpp"
#include "runtimes/runtime_api.hpp"

namespace parmem {

class StwRuntime {
 public:
  static constexpr const char* kName = "stw";

  struct Options {
    unsigned workers = 0;  // 0 = one per hardware thread
    std::size_t gc_min_budget = std::size_t{32} << 20;  // shared-heap bytes
    double gc_growth_factor = 8.0;
    // Hard cap on pool bytes; 0 = PARMEM_HEAP_BUDGET, else unlimited.
    // Exceeding it forces a full stop-the-world collection and one
    // retry before parmem::OutOfMemory reaches the program.
    std::size_t heap_budget_bytes = 0;
    std::string failpoints;  // e.g. "chunk_alloc=fail@3"; "" = none
    // Append one JSON line of counters + pause-histogram summaries to
    // this file at runtime destruction; "" = PARMEM_STATS_JSON or none.
    std::string stats_json_path;
  };

  class Ctx {
   public:
    Ctx(const Ctx&) = delete;
    Ctx& operator=(const Ctx&) = delete;

    Object* alloc(std::uint32_t nptr, std::uint32_t nscalar) {
      std::size_t size = Object::size_bytes(nptr, nscalar);
      char* p = heap_.try_bump(size);
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

    // Flat shared heap, mutators stopped during collection: no
    // forwarding can be observed by running code, so every barrier is a
    // plain access -- identical costs to the sequential baseline.
    static std::int64_t read_i64_imm(const Object* o, std::uint32_t i) {
      return o->scalar(i);
    }
    static std::int64_t read_i64_mut(Object* o, std::uint32_t i) {
      return o->scalar(i);
    }
    static void write_i64(Object* o, std::uint32_t i, std::int64_t v) {
      o->set_scalar(i, v);
    }
    static Object* read_ptr(Object* o, std::uint32_t i) {
      return o->ptr(i);
    }
    void write_ptr(Object* o, std::uint32_t idx, Object* v) {
      o->set_ptr(idx, v);
    }

    Object* publish(Object* v) { return v; }

    void collect_now() { rt_->collect(this, /*force=*/true); }

    StwRuntime& runtime() { return *rt_; }
    RootFrame** root_head_ref() { return &frames_; }

    // SpawnedBranch hooks: a branch joins the running set for exactly
    // the span of its execution (entry blocks while a collection is
    // pending; exit wakes a collector waiting on the running count).
    void branch_enter() { rt_->activate(); }
    void branch_exit() { rt_->deactivate(); }

   private:
    friend class StwRuntime;
    friend class CtxRegistry<Ctx>;

    explicit Ctx(StwRuntime* rt)
        : rt_(rt), heap_(nullptr, 0, &rt->chunks_) {
      rt_->ctxs_.add(this, rt_->pool_.current_index());
    }
    ~Ctx() { rt_->ctxs_.remove(this); }

    Object* alloc_slow(std::uint32_t nptr, std::uint32_t nscalar) {
      if (rt_->gate_.pending()) {
        rt_->gate_.park();
      }
      rt_->collect(this, /*force=*/false);
      Object* o;
      try {
        o = heap_.bump_alloc(nptr, nscalar);
      } catch (const OutOfMemory&) {
        // Budget hit (or injected chunk fault): force a full
        // stop-the-world collection -- the biggest hammer this flat
        // heap has -- and retry exactly once. A failure of the
        // collection itself propagates from collect() instead of
        // looping back here.
        rt_->collect(this, /*force=*/true);
        rt_->stats_.local().emergency_gcs.fetch_add(1, std::memory_order_relaxed);
        o = heap_.bump_alloc(nptr, nscalar);
      }
      o->zero_fields();
      return o;
    }

    StwRuntime* rt_;
    Heap heap_;  // this task's allocation buffer of the shared heap
    RootFrame* frames_ = nullptr;
    CtxRegistry<Ctx>::Link reg_;
  };

  StwRuntime() : StwRuntime(Options{}) {}
  explicit StwRuntime(const Options& opts)
      : opts_(opts), gc_budget_(opts.gc_min_budget), pool_(opts.workers) {
    env::install_failpoints_env();
    trace::init_from_env();
    profiler::init_from_env();
    profiler::note_stack_hi();
    chunks_.set_budget(effective_heap_budget(opts_.heap_budget_bytes));
    if (!opts_.failpoints.empty()) {
      failpoint::install(opts_.failpoints);
    }
  }
  StwRuntime(const StwRuntime&) = delete;
  StwRuntime& operator=(const StwRuntime&) = delete;

  ~StwRuntime() {
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

  template <class F>
  auto run(F&& f) {
    WorkStealPool::Scope scope(&pool_);
    Ctx ctx(this);
    ActiveScope act(this);
    return f(ctx);
  }

  template <class F, class G>
  static auto fork2(Ctx& ctx, std::initializer_list<Local> roots, F&& f,
                    G&& g) {
    (void)roots;
    using RA = rtapi::BranchResult<F, Ctx>;
    using RB = rtapi::BranchResult<G, Ctx>;

    StwRuntime* rt = ctx.rt_;
    rt->stats_.local().forks.fetch_add(1, std::memory_order_relaxed);

    Ctx ctx_a(rt);
    Ctx ctx_b(rt);

    // Both result channels push a Local onto the PARENT's frame chain
    // (a plain-pointer list the collector walks), so they must be
    // constructed while the parent is still in the running set -- a
    // push after deactivate() could race a collector already scanning
    // the chain. Spawning before deactivating is fine: the parent
    // never blocks until the join below.
    rtapi::ResultChannel<Ctx, RA> ch_a(ctx);
    rtapi::SpawnedBranch<Ctx, std::remove_reference_t<G>> task_b(
        &rt->pool_, g, ctx_b, ctx);

    // The parent now leaves the running set: a pending collection must
    // never wait on a task that is blocked in fork2 rather than parked
    // at a safepoint. Its frames stay registered (and scanned) through
    // its Ctx for the whole join.
    rt->deactivate();

    std::exception_ptr err_a;
    ctx_a.branch_enter();
    try {
      ch_a.store(ctx_a, rtapi::invoke_branch(f, ctx_a));
    } catch (...) {
      err_a = std::current_exception();
    }
    ctx_a.branch_exit();
    task_b.join(err_a != nullptr);

    // Reactivating blocks while a collection is pending, so once we are
    // back the merges below cannot race it: a new collection cannot
    // reach the copying phase until this task parks or deactivates.
    rt->activate();
    ctx.heap_.merge_from(ctx_a.heap_);
    ctx.heap_.merge_from(ctx_b.heap_);

    if (err_a) {
      std::rethrow_exception(err_a);
    }
    if (task_b.error()) {
      std::rethrow_exception(task_b.error());
    }
    return std::pair<RA, RB>(ch_a.take(), task_b.take_result());
  }

 private:
  struct ActiveScope {
    StwRuntime* rt;
    explicit ActiveScope(StwRuntime* r) : rt(r) { rt->activate(); }
    ~ActiveScope() { rt->deactivate(); }
    ActiveScope(const ActiveScope&) = delete;
    ActiveScope& operator=(const ActiveScope&) = delete;
  };

  void activate() { gate_.activate(pool_.current_index()); }
  void deactivate() { gate_.deactivate(pool_.current_index()); }

  bool over_budget() const {
    return chunks_.live_bytes() >= gc_budget_.load(std::memory_order_relaxed);
  }

  // A forced collection always runs; otherwise the budget is checked
  // both before the stop (a worker that lost the race to a finished
  // collection must not stop the world for nothing) and after it (a
  // collection may have finished while this one waited for the quorum).
  void collect(Ctx* me, bool force) {
    if (!force && !over_budget()) {
      return;
    }
    StopGuard stop(gate_, stats_.local());
    if (!stop || (!force && !over_budget())) {
      return;  // parked through another collection, or it left room
    }
    // The stw-GC phase records the pause below as gc_stw, whatever
    // collector runs it.
    phase::PhaseScope gc_scope(phase::Phase::kStwGc);
    // The world is stopped. Fold every task's allocation buffer into
    // ours so the flat heap really is one heap, then evacuate it with
    // the union of all root frames.
    ctxs_.for_each([me](Ctx* c) {
      if (c != me) {
        me->heap_.merge_from(c->heap_);
      }
    });
    const std::size_t live = collect_stopped(
        gate_, chunks_, &me->heap_, pool_.workers(), &stats_.local(),
        [this](auto&& fn) {
          ctxs_.for_each([&fn](Ctx* c) {
            for (RootFrame* f = c->frames_; f != nullptr; f = f->prev()) {
              f->for_each_slot(fn);
            }
          });
        });
    auto scaled = static_cast<std::size_t>(static_cast<double>(live) *
                                           opts_.gc_growth_factor);
    gc_budget_.store(
        scaled > opts_.gc_min_budget ? scaled : opts_.gc_min_budget,
        std::memory_order_relaxed);
  }

  Options opts_;
  ChunkPool chunks_;
  ShardedStats stats_{WorkStealPool::resolved_workers(opts_.workers)};
  std::atomic<std::size_t> gc_budget_;
  SafepointGate gate_{WorkStealPool::resolved_workers(opts_.workers)};
  CtxRegistry<Ctx> ctxs_{WorkStealPool::resolved_workers(opts_.workers)};
  WorkStealPool pool_;  // last member: joins threads before the rest die
};

static_assert(RuntimeLike<StwRuntime>);

}  // namespace parmem
