// The runtime-abstraction surface shared by the four comparison
// runtimes (the paper's fig10-fig13 systems):
//
//   SeqRuntime   (runtimes/seq_runtime.hpp)        mlton-like sequential
//   StwRuntime   (runtimes/stw_runtime.hpp)        spoonhower-like STW
//   LhRuntime    (runtimes/localheap_runtime.hpp)  manticore-like local heaps
//   HierRuntime  (core/hier_runtime.hpp)           hierarchical heaps
//
// Every runtime RT exposes:
//
//   RT::kName                         short stable identifier ("seq", ...)
//   RT::Options{workers, ...}         default-constructible; workers = 0
//                                     means one per hardware thread
//   RT(opts) / rt.workers()           construction + resolved worker count
//   rt.stats() -> Stats               monotonic counter snapshot
//   rt.peak_bytes() -> size_t         lifetime high-water chunk footprint
//   rt.live_bytes() -> size_t         chunk bytes currently checked out
//                                     (readable concurrently; the serve
//                                     harness samples it mid-run)
//   rt.run(f) -> f(ctx)               execute f as the root task
//   RT::fork2(ctx, {roots}, f, g)     fork-join returning {f res, g res};
//                                     `roots` lists every parent Local the
//                                     branches may touch (the local-heap
//                                     runtime promotes their closures at
//                                     spawn; the others may ignore them)
//
// and a Ctx with the allocation/barrier surface:
//
//   ctx.alloc(nptr, nscalar)          zeroed bump allocation
//   Ctx::init_i64 / Ctx::init_ptr     initialising stores (fresh objects)
//   Ctx::read_i64_imm                 immutable scalar read
//   Ctx::read_i64_mut / Ctx::write_i64   mutable scalar access
//   Ctx::read_ptr / ctx.write_ptr     pointer access (the write barrier is
//                                     where the runtimes differ)
//   ctx.publish(v)                    make v's closure safe to hand to the
//                                     parent across a join: identity under
//                                     seq/stw/hier, promotion to the global
//                                     heap under local heaps
//   ctx.collect_now()                 force a collection
//   ctx.root_head_ref()               RootFrame chain head (precise roots)
//
// Portability contract for code written against this surface (the
// workload kernels in bench_common/workloads.hpp obey it):
//
//   - A raw Object* must not be held across ctx.alloc or fork2; anything
//     live across them goes in a RootFrame Local. (Collectors move
//     objects: leaf GC under seq/lh/hier, any alloc-triggered STW cycle
//     under stw.)
//   - A branch may RETURN a raw Object*: fork2 carries each branch's
//     result through a rooted channel (ResultChannel below) -- the value
//     is published on the executing worker and parked in a parent-frame
//     Local until the join consumes it, so any collection in between
//     rewrites it like every other root. Results of other types carry
//     scalars only (an Object* buried inside a struct return is NOT
//     rooted; publish it into a parent Local instead).
//   - Shared structures both branches touch are listed in fork2's roots.
//
// bench_common::measure() consumes exactly this surface (stats(),
// peak_bytes(), run()), so any RuntimeLike runtime drops into the
// figure drivers unchanged.
//
// The part of a runtime that is the same in all four -- the chunk
// pool, the counters, construction from the process config, the stats
// export and the read-only accessors -- is RuntimeShell below; each
// runtime derives from it and adds only what differs.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/config.hpp"
#include "core/failpoint.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/profiler.hpp"
#include "core/roots.hpp"
#include "core/sched.hpp"
#include "core/stats.hpp"
#include "core/stats_json.hpp"
#include "core/trace.hpp"

namespace parmem {

namespace rtapi {

// void branches surface as std::monostate in fork2's result pair.
template <class Fn, class Ctx>
using BranchResult = std::conditional_t<
    std::is_void_v<std::invoke_result_t<Fn&, Ctx&>>, std::monostate,
    std::decay_t<std::invoke_result_t<Fn&, Ctx&>>>;

template <class Fn, class Ctx>
BranchResult<Fn, Ctx> invoke_branch(Fn& fn, Ctx& c) {
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&, Ctx&>>) {
    fn(c);
    return std::monostate{};
  } else {
    return fn(c);
  }
}

// Rooted branch-result carrier. A branch returning a raw Object* used
// to park it in an unregistered stack slot from branch completion
// until the parent consumed it after the join -- any collection inside
// that window (a GC-stress join cycle, a helping joiner's leaf
// collection, a stopped-world pause) could relocate the object and
// leave the return value stale. The channel closes the hole:
//
//   * construction registers ONE Local in the PARENT's frame chain,
//     on the parent's thread, before the branch can possibly run;
//   * store() runs on whichever thread executes the branch: it
//     publishes the value (identity under seq/stw/hier; promotion
//     under local heaps, where a branch-local object must escape its
//     worker to survive the hand-off anyway) and writes the slot --
//     safe against a concurrent scan of the parent's frames because
//     Local slots are atomic and collectors rewrite only pointers
//     into the heap being collected (core/gc_parallel.hpp prepare);
//   * take() re-reads the slot after the join, by which time any
//     collection has rewritten it like every other root.
//
// Non-pointer results pass through a plain buffer, so fork2 call
// sites need no special cases -- and pay no frame push for them. The
// buffer is a value-initialised R whenever R has a default constructor
// (every result in this repository does): gcc 12 cannot see that a
// std::optional is engaged on every path that reads it and warned
// -Wmaybe-uninitialized at every fork2 instantiation.
template <class Ctx, class R>
class ResultChannel {
  static constexpr bool kPlain = std::is_default_constructible_v<R>;

 public:
  explicit ResultChannel(Ctx&) {}
  ResultChannel(const ResultChannel&) = delete;
  ResultChannel& operator=(const ResultChannel&) = delete;

  void store(Ctx&, R&& v) { out_ = std::move(v); }
  R take() {
    if constexpr (kPlain) {
      return std::move(out_);
    } else {
      return std::move(*out_);
    }
  }

 private:
  std::conditional_t<kPlain, R, std::optional<R>> out_{};
};

template <class Ctx>
class ResultChannel<Ctx, Object*> {
 public:
  explicit ResultChannel(Ctx& parent)
      : frame_(parent), slot_(frame_.local(nullptr)) {}
  ResultChannel(const ResultChannel&) = delete;
  ResultChannel& operator=(const ResultChannel&) = delete;

  void store(Ctx& executing, Object*&& v) {
    slot_.set(executing.publish(v));
  }
  Object* take() { return slot_.get(); }

 private:
  RootFrame frame_;
  Local slot_;
};

// The spawn/join half of fork2, shared by every runtime: push the
// right branch at construction, then join() after the left branch ran
// -- popping it back for inline execution when unstolen (the common
// case), helping steal otherwise. Per-runtime work around a branch's
// execution (bind to a worker heap, enter/leave the STW running set)
// goes in Ctx::branch_enter()/branch_exit(), which run on the thread
// that actually executes the branch.
//
// `parent` is the forking context: it owns the rooted result slot
// (see ResultChannel) and must outlive the join. Stack-allocated by
// fork2 and joined before the frame dies, exactly like the tasks
// core/sched.hpp documents.
template <class Ctx, class G>
class SpawnedBranch final : public WorkStealPool::Task {
 public:
  using RB = BranchResult<G, Ctx>;

  SpawnedBranch(WorkStealPool* pool, G& g, Ctx& ctx, Ctx& parent)
      : pool_(pool), g_(&g), ctx_(&ctx), chan_(parent) {
    pool_->push(this);
  }
  SpawnedBranch(const SpawnedBranch&) = delete;
  SpawnedBranch& operator=(const SpawnedBranch&) = delete;

  void execute() override {
    ctx_->branch_enter();
    try {
      chan_.store(*ctx_, invoke_branch(*g_, *ctx_));
    } catch (...) {
      err_ = std::current_exception();
    }
    ctx_->branch_exit();
    done_.store(true, std::memory_order_release);
  }

  // Join after the left branch completed. `left_failed` skips inline
  // execution of a still-unstolen branch when the left branch already
  // threw (matching the sequential semantics of rethrowing the first
  // error).
  void join(bool left_failed) {
    if (pool_->cancel(this)) {
      if (!left_failed) {
        execute();
      }
    } else {
      pool_->help_until(
          [this] { return done_.load(std::memory_order_acquire); });
    }
  }

  // After the join: rethrow the first branch error (the left branch's
  // `err_a` first, matching sequential semantics), else return both
  // results.
  template <class RA>
  std::pair<RA, RB> results(std::exception_ptr err_a,
                            ResultChannel<Ctx, RA>& ch_a) {
    if (err_a) {
      std::rethrow_exception(err_a);
    }
    if (err_) {
      std::rethrow_exception(err_);
    }
    return std::pair<RA, RB>(ch_a.take(), chan_.take());
  }

 private:
  WorkStealPool* pool_;
  G* g_;
  Ctx* ctx_;
  ResultChannel<Ctx, RB> chan_;
  std::exception_ptr err_;
  std::atomic<bool> done_{false};
};

// The process-wide side effects of the config, made once per process
// by the first runtime constructed: arm PARMEM_FAILPOINTS, and start
// the PARMEM_TRACE / PARMEM_PROFILE exports.
inline void install_process_config() {
  static const bool once = [] {
    const config::Config& env = config::env();
    if (!env.failpoints.empty()) {
      failpoint::install(env.failpoints);
    }
    trace::export_at_exit(env.trace_path);
    profiler::profile_at_exit(env.profile_path, env.profile_hz);
    return true;
  }();
  (void)once;
}

// The shell every runtime derives from. Options is the runtime's flat
// Options struct, declared at namespace scope so the base can hold it.
//
//   * It owns the ChunkPool and the ShardedStats. As base members they
//     outlive all of the runtime's own: its WorkStealPool, declared
//     last, joins its threads first, then its heaps die, and only then
//     the pool they drew chunks from.
//   * It resolves the Options against the process config
//     (core/config.hpp) before the runtime's members are built:
//     PARMEM_GC_STRESS turns gc_stress on, and a gc_internal_threshold
//     or gc_global_threshold left at 0 takes its variable -- for
//     whichever of these fields the runtime has. An explicit heap
//     budget wins over PARMEM_HEAP_BUDGET the same way.
//   * At destruction it appends the run's stats JSONL line, with the
//     resolved configuration (see config_json).
template <class Options>
class RuntimeShell {
 public:
  RuntimeShell(const RuntimeShell&) = delete;
  RuntimeShell& operator=(const RuntimeShell&) = delete;

  const Options& options() const { return opts_; }
  unsigned workers() const { return workers_; }
  Stats stats() const { return stats_.snapshot(); }
  std::size_t peak_bytes() const { return chunks_.peak_bytes(); }
  std::size_t live_bytes() const { return chunks_.live_bytes(); }

 protected:
  // `workers` is the runtime's resolved worker count.
  RuntimeShell(const char* name, const Options& opts, unsigned workers)
      : opts_(resolve(opts)), stats_(workers), name_(name), workers_(workers) {
    install_process_config();
    profiler::note_stack_hi();
    chunks_.set_budget(opts_.heap_budget_bytes != 0
                           ? opts_.heap_budget_bytes
                           : config::env().heap_budget);
    if (!opts_.failpoints.empty()) {
      failpoint::install(opts_.failpoints);
    }
  }

  ~RuntimeShell() {
    const std::string& path = opts_.stats_json_path.empty()
                                  ? config::env().stats_json_path
                                  : opts_.stats_json_path;
    if (path.empty()) {
      return;
    }
    StatsSnapshot snap;
    snap.stats = stats_.snapshot();
    snap.live_bytes = chunks_.live_bytes();
    snap.peak_bytes = chunks_.peak_bytes();
    stats_json::write(path, name_, config_json(), snap);
  }

  // The budget (or an injected chunk fault) refused an allocation:
  // climb the collection cascade, cheapest rung first -- the task's
  // own leaf heap (no coordination needed), then `stop`, the runtime's
  // stopped-world rung (a no-op with its safepoint machinery off). The
  // caller retries the allocation once; a second failure is the
  // program's real OOM. Every runtime's cascade runs through here, so
  // each one bills emergency_gcs and records one emergency_cascade
  // event: seq has no stop rung, and stw no leaf rung (its heap is
  // shared, so its one rung is a stopped-world collection).
  template <class CollectLeaf, class Stop>
  void emergency_collect(CollectLeaf&& collect_leaf, Stop&& stop) {
    const std::uint64_t trace_t0 = trace::now_ns();
    const std::uint64_t live_before = chunks_.live_bytes();
    stats_.local().emergency_gcs.fetch_add(1, std::memory_order_relaxed);
    collect_leaf();
    stop();
    // One event spanning the whole cascade; its constituent
    // collections also recorded individually above.
    trace::record_emergency(trace_t0, trace::now_ns() - trace_t0,
                            live_before);
  }

  Options opts_;
  ChunkPool chunks_;
  ShardedStats stats_;

 private:
  static Options resolve(Options o) {
    const config::Config& env = config::env();
    if constexpr (requires { o.gc_stress; }) {
      o.gc_stress = o.gc_stress || env.gc_stress;
    }
    if constexpr (requires { o.gc_internal_threshold; }) {
      if (o.gc_internal_threshold == 0) {
        o.gc_internal_threshold = env.internal_gc_threshold;
      }
    }
    if constexpr (requires { o.gc_global_threshold; }) {
      if (o.gc_global_threshold == 0) {
        o.gc_global_threshold = env.gc_global_threshold.value_or(0);
      }
    }
    return o;
  }

  // The configuration a stats line records, one flat JSON object:
  // resolved workers, heap budget, gc_min_budget, gc_growth_factor,
  // gc_stress (false where the runtime has no stress mode), each
  // collection threshold the runtime has, and hier's evacuation team
  // size and promotion protocol ("coarse" or "fine").
  std::string config_json() const {
    bool stress = false;
    if constexpr (requires { opts_.gc_stress; }) {
      stress = opts_.gc_stress;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"workers\":%u,\"heap_budget_bytes\":%zu,"
                  "\"gc_min_budget\":%zu,\"gc_growth_factor\":%g,"
                  "\"gc_stress\":%s",
                  workers_, chunks_.budget(), opts_.gc_min_budget,
                  opts_.gc_growth_factor, stress ? "true" : "false");
    std::string out = buf;
    auto field = [&out](const char* key, std::size_t v) {
      out += std::string(",\"") + key + "\":" + std::to_string(v);
    };
    if constexpr (requires { opts_.gc_join_threshold; }) {
      field("gc_join_threshold", opts_.gc_join_threshold);
    }
    if constexpr (requires { opts_.gc_internal_threshold; }) {
      field("gc_internal_threshold", opts_.gc_internal_threshold);
    }
    if constexpr (requires { opts_.gc_global_threshold; }) {
      field("gc_global_threshold", opts_.gc_global_threshold);
    }
    if constexpr (requires { opts_.gc_parallel_team; }) {
      field("gc_parallel_team", opts_.gc_parallel_team);
    }
    if constexpr (requires { opts_.promotion; }) {
      out += opts_.promotion == PromotionMode::kCoarseLocking
                 ? ",\"promotion\":\"coarse\""
                 : ",\"promotion\":\"fine\"";
    }
    return out + "}";
  }

  const char* name_;
  unsigned workers_;
};

// Lock-free point-in-time sample of a runtime's counters + memory
// gauges (core/stats.hpp StatsSnapshot). Safe to call from a thread
// outside the runtime's pool while tasks keep running -- the
// steady-state surface the serve harness samples RSS/fragmentation
// against.
template <class RT>
StatsSnapshot snapshot_of(const RT& rt) {
  StatsSnapshot s;
  s.stats = rt.stats();
  s.live_bytes = rt.live_bytes();
  s.peak_bytes = rt.peak_bytes();
  return s;
}

}  // namespace rtapi

// Compile-time check of the non-template part of the surface (run and
// fork2 are templates and are covered by the parity tests instead).
template <class RT>
concept RuntimeLike = requires(const RT& crt, typename RT::Ctx& ctx,
                               Object* o, typename RT::Options opts) {
  requires std::default_initializable<typename RT::Options>;
  { opts.workers } -> std::convertible_to<unsigned>;
  { RT::kName } -> std::convertible_to<const char*>;
  { crt.workers() } -> std::convertible_to<unsigned>;
  { crt.stats() } -> std::same_as<Stats>;
  { crt.peak_bytes() } -> std::convertible_to<std::size_t>;
  { crt.live_bytes() } -> std::convertible_to<std::size_t>;
  { ctx.alloc(0u, 1u) } -> std::same_as<Object*>;
  { RT::Ctx::init_i64(o, 0u, std::int64_t{0}) };
  { RT::Ctx::init_ptr(o, 0u, o) };
  { RT::Ctx::read_i64_imm(o, 0u) } -> std::same_as<std::int64_t>;
  { RT::Ctx::read_i64_mut(o, 0u) } -> std::same_as<std::int64_t>;
  { RT::Ctx::write_i64(o, 0u, std::int64_t{0}) };
  { RT::Ctx::read_ptr(o, 0u) } -> std::same_as<Object*>;
  { ctx.write_ptr(o, 0u, o) };
  { ctx.publish(o) } -> std::same_as<Object*>;
  { ctx.collect_now() };
  { ctx.root_head_ref() } -> std::same_as<RootFrame**>;
  { ctx.branch_enter() };  // rtapi::SpawnedBranch hooks (internal)
  { ctx.branch_exit() };
};

}  // namespace parmem
