// Spoonhower-style parallel baseline ("mlton-spoonhower" in
// fig10-fig13): one flat shared heap allocated from one buffer per pool
// worker, no promotion and no read/write barrier. A task runs to
// completion on the thread that started it, so it allocates from that
// worker's buffer and each buffer has one writer at a time. Collection
// is STOP-THE-WORLD:
//
//   the task that trips the shared budget stops the world through the
//   shared SafepointGate (core/sched.hpp) -- every other RUNNING task
//   parks at a safepoint (its alloc slow path; tasks blocked in a
//   fork2 join are deactivated and need not park) -- and
//   collect_stopped (core/gc_parallel.hpp) merges every buffer into
//   the driver's and evacuates it, with the parked mutators recruited
//   as its team (alone when none is parked or at workers=1).
//
// The fast paths are as cheap as the sequential runtime's (the point of
// this baseline), and fork2 is lock-free too: entering/leaving the
// running set is one atomic add on a per-worker gate count plus one flag
// check, and registering a context for the root walk is a per-worker
// intrusive list under a per-worker spinlock (CtxRegistry).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/gc_parallel.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/roots.hpp"
#include "core/sched.hpp"
#include "core/stats.hpp"
#include "runtimes/runtime_api.hpp"

namespace parmem {

struct StwOptions {
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

class StwRuntime : public rtapi::RuntimeShell<StwOptions> {
 public:
  static constexpr const char* kName = "stw";
  using Options = StwOptions;

  class Ctx {
   public:
    Ctx(const Ctx&) = delete;
    Ctx& operator=(const Ctx&) = delete;

    Object* alloc(std::uint32_t nptr, std::uint32_t nscalar) {
      Object* o = heap_->try_alloc(nptr, nscalar);
      if (__builtin_expect(o == nullptr, 0)) {
        return alloc_slow(nptr, nscalar);
      }
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
    // pending) and allocates from the executing worker's buffer.
    void branch_enter() {
      rt_->activate();
      heap_ = rt_->buffers_[rt_->pool_.current_index()].get();
    }
    void branch_exit() { rt_->deactivate(); }

   private:
    friend class StwRuntime;
    friend class CtxRegistry<Ctx>;

    explicit Ctx(StwRuntime* rt) : rt_(rt) {
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
        o = heap_->bump_alloc(nptr, nscalar);
      } catch (const OutOfMemory&) {
        // Budget hit (or injected chunk fault): no heap is private to
        // a task, so the cascade's only rung is a full stop-the-world
        // collection; then retry exactly once. A failure of the
        // collection itself propagates from collect() instead of
        // looping back here.
        rt_->emergency_collect(
            [] {}, [this] { rt_->collect(this, /*force=*/true); });
        o = heap_->bump_alloc(nptr, nscalar);
      }
      o->zero_fields();
      return o;
    }

    StwRuntime* rt_;
    Heap* heap_ = nullptr;  // the executing worker's buffer (branch_enter)
    RootFrame* frames_ = nullptr;
    CtxRegistry<Ctx>::Link reg_;
  };

  StwRuntime() : StwRuntime(Options{}) {}
  explicit StwRuntime(const Options& opts)
      : RuntimeShell(kName, opts,
                     WorkStealPool::resolved_workers(opts.workers)),
        gc_budget_(opts_.gc_min_budget),
        gate_(workers()),
        ctxs_(workers()),
        pool_(opts_.workers) {
    for (unsigned i = 0; i < pool_.workers(); ++i) {
      buffers_.push_back(std::make_unique<Heap>(nullptr, 0, &chunks_));
      heaps_.push_back(buffers_.back().get());
    }
  }

  template <class F>
  auto run(F&& f) {
    WorkStealPool::Scope scope(&pool_);
    Ctx ctx(this);
    ctx.branch_enter();
    // The root leaves like a branch; then every buffer is dropped.
    struct RootExit {
      Ctx& ctx;
      ~RootExit() {
        ctx.branch_exit();
        for (auto& b : ctx.rt_->buffers_) {
          b->release_all_chunks();
        }
      }
    } root_exit{ctx};
    return f(ctx);
  }

  template <class F, class G>
  static auto fork2(Ctx& ctx, std::initializer_list<Local> roots, F&& f,
                    G&& g) {
    (void)roots;
    using RA = rtapi::BranchResult<F, Ctx>;

    StwRuntime* rt = ctx.rt_;
    rt->stats_.local().forks.fetch_add(1, std::memory_order_relaxed);

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

    // The left branch runs as the parent itself: same thread, same
    // buffer, its frames pushed onto the parent's chain.
    std::exception_ptr err_a;
    try {
      ch_a.store(ctx, rtapi::invoke_branch(f, ctx));
    } catch (...) {
      err_a = std::current_exception();
    }

    // The parent now leaves the running set: a pending collection must
    // never wait on a task that is blocked in fork2 rather than parked
    // at a safepoint. Its frames stay registered (and scanned) through
    // its Ctx for the whole join. Reactivating blocks while a
    // collection is pending.
    rt->deactivate();
    task_b.join(err_a != nullptr);
    rt->activate();

    return task_b.results(err_a, ch_a);
  }

 private:
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
    // The stw-GC phase records the pause as gc_stw, whatever collector
    // runs it. Every buffer folds into ours, which is evacuated.
    phase::PhaseScope gc_scope(phase::Phase::kStwGc);
    std::swap(heaps_.front(),
              *std::find(heaps_.begin(), heaps_.end(), me->heap_));
    const std::size_t live = collect_stopped(
        gate_, chunks_, heaps_, pool_.workers(), &stats_.local(),
        [this](auto&& fn) {
          ctxs_.for_each([&fn](Ctx* c) {
            for (RootFrame* f = c->frames_; f != nullptr; f = f->prev()) {
              f->for_each_slot(fn);
            }
          });
        });
    gc_budget_.store(
        gc_trigger_bytes(opts_.gc_min_budget, opts_.gc_growth_factor, live),
        std::memory_order_relaxed);
  }

  std::vector<std::unique_ptr<Heap>> buffers_;  // one per pool worker
  std::vector<Heap*> heaps_;  // every buffer; a stop moves its own first
  std::atomic<std::size_t> gc_budget_;
  SafepointGate gate_;
  CtxRegistry<Ctx> ctxs_;
  WorkStealPool pool_;  // last member: joins threads before the rest die
};

static_assert(RuntimeLike<StwRuntime>);

}  // namespace parmem
