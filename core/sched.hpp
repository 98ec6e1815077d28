// Work-stealing fork-join scheduler. fork2 pushes the right branch on
// the calling worker's deque, runs the left branch inline, then either
// pops the right branch back (the common, steal-free case -- this is
// what keeps hierarchical heaps promotion-free on balanced work) or
// helps by stealing other tasks until the thief finishes.
//
// The deques are per-worker Chase-Lev lock-free deques
// (core/deque.hpp): the uncontended fork2 push+pop cycle touches no
// mutex and no shared cache line beyond the deque's own bottom index.
// Tasks are stack-allocated by fork2 and joined before the frame dies,
// so the deques hold raw pointers and never allocate per fork (ring
// growth aside).
//
// Deque <-> gate memory-ordering contract (shared with SafepointGate
// below): a task sitting in a deque is INERT -- it is not a member of
// any gate's running set and holds no heap or runtime state that a
// stopper could need quiesced. A task joins the running set only when
// the worker that dequeued it executes it and that execution activates
// the gate (branch_enter / a runtime's fork path), which is a seq_cst
// RMW on the executing worker's own slot, Dekker-paired with the
// stopper's seq_cst stop-flag store + count read. Stoppers therefore
// never inspect deque contents, and the deque's internal orderings only
// have to publish the task payload from pusher to taker (see
// core/deque.hpp); no ordering edge between deque indices and gate
// flags is required for stop correctness. The one cross-component
// ordering this file does own is the push-vs-park Dekker pair on
// sleepers_, documented at push()/park_worker().
#pragma once

#include <unistd.h>

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/phase.hpp"
#include "core/profiler.hpp"
#include "core/sig_io.hpp"  // sig_write / sig_write_i64 (hoisted from here)
#include "core/spin.hpp"
#include "core/trace.hpp"
#include "deque.hpp"

namespace parmem {

class WorkStealPool {
 public:
  class Task {
   public:
    virtual void execute() = 0;

   protected:
    ~Task() = default;
  };

  // The worker count an Options value of `workers` resolves to (0 =
  // hardware concurrency). Exposed so runtimes can size per-worker
  // state (sharded stats, chunk caches) declared BEFORE their pool
  // member without reordering destruction.
  static unsigned resolved_workers(unsigned workers) {
    if (workers == 0) {
      workers = std::thread::hardware_concurrency();
      if (workers == 0) {
        workers = 1;
      }
    }
    return workers;
  }

  explicit WorkStealPool(unsigned workers) {
    workers = resolved_workers(workers);
    deques_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      deques_.push_back(std::make_unique<ChaseLevDeque<Task>>());
    }
    // Worker 0 is the thread that calls run(); spawn the rest.
    for (unsigned i = 1; i < workers; ++i) {
      threads_.emplace_back([this, i] { worker_main(i); });
    }
  }

  ~WorkStealPool() {
    stop_.store(true, std::memory_order_seq_cst);
    {
      // The epoch bump under the lock makes the stop visible to a
      // parker between its predicate check and its wait (same protocol
      // as wake_one, see push()).
      std::lock_guard<std::mutex> g(sleep_mu_);
      wake_epoch_.fetch_add(1, std::memory_order_release);
    }
    sleep_cv_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  unsigned workers() const { return static_cast<unsigned>(deques_.size()); }

  // How long a parked worker sleeps before its backstop re-check (see
  // park_worker for why this is safe to make long).
  static constexpr std::chrono::milliseconds kParkBackstop{500};

  // Parks that ended in the wait_for timeout with nothing to do -- the
  // idle-churn metric a long-running server pays as permanent wakeup
  // CPU. A quiescent pool accrues at most one per worker per
  // kParkBackstop; the serve-harness quiescence test pins that.
  std::uint64_t idle_wakeups() const {
    return idle_wakeups_.load(std::memory_order_relaxed);
  }

  // Index of the calling thread within this pool (0 is the thread that
  // entered run()). Runtimes with per-worker state (local heaps) key it
  // off this.
  unsigned current_index() const {
    auto [pool, idx] = tls();
    assert(pool == this && "caller must be a thread owned by this pool");
    (void)pool;
    return idx;
  }

  // RAII registration of the calling thread as worker 0 for the
  // duration of a run(); nests correctly across runtimes.
  class Scope {
   public:
    explicit Scope(WorkStealPool* p) : saved_(tls()) { tls() = {p, 0}; }
    ~Scope() { tls() = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::pair<WorkStealPool*, unsigned> saved_;
  };

  // Owner-side push: lock-free deque push, then a fence-free sleeper
  // check. This is deliberately an ASYMMETRIC Dekker pair: the parker
  // pays a seq_cst RMW + fence before its rescan (park_worker), while
  // the pusher pays only plain stores and a relaxed load -- a fence
  // here would put an mfence on every fork2 and measurably tax the
  // uncontended cycle. The cost of the asymmetry is one narrow window
  // (this push's store still in the store buffer while the sleepers_
  // load reads a pre-announce 0, i.e. both sides miss each other
  // within one store-buffer drain, tens of ns) in which a wake is
  // lost; park_worker's bounded wait_for turns that into a
  // <=kParkBackstop delay, not a hang. Every wake the pusher DOES
  // observe is guaranteed delivered by the wake_epoch_ protocol, which
  // is what lets the park timeout be long: the old code lost wakes
  // systematically (notify_one racing the pre-wait window), so its
  // 500 us poll was load-bearing; here the timeout is a safety net
  // for a provably rare race only.
  void push(Task* t) {
    auto [pool, idx] = tls();
    assert(pool == this && "fork2 must run on a thread owned by its runtime");
    deques_[idx]->push(t);
    if (__builtin_expect(sleepers_.load(std::memory_order_relaxed) > 0, 0)) {
      wake_one();
    }
  }

  // Remove `t` if it was not stolen. fork2 nesting makes this exact:
  // every task pushed after `t` on this deque has already been joined
  // (popped or stolen) by the time `t`'s join runs, so `t` is the
  // newest entry if present at all; and thieves drain from the top
  // (oldest first), so if `t` was stolen the whole deque below it was
  // stolen first and pop() sees empty. Hence pop() returns `t` or
  // nullptr, never a different task. Returns true when the caller
  // should run `t` inline.
  bool cancel(Task* t) {
    auto [pool, idx] = tls();
    assert(pool == this);
    Task* p = deques_[idx]->pop();
    assert((p == t || p == nullptr) &&
           "fork2 joins must nest: cancel target is newest-or-stolen");
    return p == t;
  }

  // Join loop: execute other tasks until `done` returns true. Spins /
  // yields but never parks on sleep_cv_ -- `done` flips on a plain
  // atomic the finishing thief does not pair with the condvar.
  template <class Pred>
  void help_until(Pred&& done) {
    phase::PhaseScope steal_scope(phase::Phase::kSteal);
    unsigned idle = 0;
    while (!done()) {
      Task* t = try_steal();
      if (t != nullptr) {
        phase::PhaseScope run_scope(phase::Phase::kMutator);
        t->execute();
        idle = 0;
        continue;
      }
      back_off(idle++);
    }
  }

 private:
  static std::pair<WorkStealPool*, unsigned>& tls() {
    static thread_local std::pair<WorkStealPool*, unsigned> slot{nullptr, 0};
    return slot;
  }

  static void back_off(unsigned idle) {
    if (idle < 64) {
      cpu_relax();
    } else if (idle < 256) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  // Per-thread xorshift64 for victim selection; seeded from the thread
  // identity so thieves do not sweep victims in lockstep.
  static std::uint64_t next_rand() {
    static thread_local std::uint64_t state =
        0x9e3779b97f4a7c15ull ^
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::uint64_t x = state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state = x;
    return x;
  }

  // Take the OLDEST available task: own deque's top first (a pending
  // sibling branch from an enclosing fork2 -- running it inline is the
  // cheapest possible "steal"), then one randomized sweep over the
  // other workers. A lost steal CAS shows up as nullptr from one
  // victim; callers loop, so a single attempt per victim per sweep is
  // enough and keeps thieves from convoying on one deque.
  Task* try_steal() {
    auto [pool, idx] = tls();
    unsigned n = workers();
    if (Task* t = deques_[idx]->steal()) {
      return t;
    }
    if (n > 1) {
      unsigned start = static_cast<unsigned>(next_rand() % n);
      for (unsigned k = 0; k < n; ++k) {
        unsigned v = (start + k) % n;
        if (v == idx) {
          continue;
        }
        if (Task* t = deques_[v]->steal()) {
          return t;
        }
      }
    }
    return nullptr;
  }

  bool any_work() const {
    for (const auto& d : deques_) {
      if (!d->empty()) {
        return true;
      }
    }
    return false;
  }

  // Wake path, only reached when a pusher observed sleepers_ > 0: bump
  // the epoch under sleep_mu_ so a parker between its announce/rescan
  // and its wait sees the wake through the condvar predicate, then
  // notify. Cost is confined to genuinely-idle periods.
  void wake_one() {
    {
      std::lock_guard<std::mutex> g(sleep_mu_);
      wake_epoch_.fetch_add(1, std::memory_order_release);
    }
    sleep_cv_.notify_one();
  }

  // Parker's half of the asymmetric push-vs-park pair (see push()):
  // announce on sleepers_ with a seq_cst RMW, fence, THEN rescan the
  // deques -- so any push whose sleepers_ check completed before our
  // announce became visible is seen by this rescan and we bail out
  // without sleeping. If the pusher saw our announce, its wake_one
  // either bumps wake_epoch_ before our wait (the predicate catches
  // it, closing the old check-then-park window) or notifies us out of
  // the wait. The wait_for timeout only backstops the pusher-side
  // store-buffer race push() documents -- a tens-of-ns window -- so it
  // can be long: the old 10 ms value had every parked worker waking at
  // 100 Hz forever, idle CPU a steady-state server pays for nothing.
  // The worst case a lost wake now costs is one branch waiting
  // kParkBackstop to be stolen (its owner can still pop it back
  // meanwhile), traded for near-zero idle churn.
  void park_worker() {
    std::uint64_t seq = wake_epoch_.load(std::memory_order_acquire);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (stop_.load(std::memory_order_acquire) || any_work()) {
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      return;
    }
    {
      std::unique_lock<std::mutex> lk(sleep_mu_);
      bool woken = sleep_cv_.wait_for(lk, kParkBackstop, [&] {
        return wake_epoch_.load(std::memory_order_acquire) != seq ||
               stop_.load(std::memory_order_acquire);
      });
      if (!woken) {
        idle_wakeups_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }

  void worker_main(unsigned idx) {
    tls() = {this, idx};
    profiler::note_stack_hi();  // frame-walk watermark: this is the
                                // outermost frame worth unwinding
    phase::PhaseScope steal_scope(phase::Phase::kSteal);
    unsigned idle = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      Task* t = try_steal();
      if (t != nullptr) {
        phase::PhaseScope run_scope(phase::Phase::kMutator);
        t->execute();
        idle = 0;
        continue;
      }
      // Exponential backoff before parking: spin briefly (steals are
      // usually satisfied within a few cycles on busy workloads),
      // yield for a while, then park for real.
      if (idle < 64) {
        cpu_relax();
        ++idle;
      } else if (idle < 192) {
        std::this_thread::yield();
        ++idle;
      } else {
        phase::PhaseScope park_scope(phase::Phase::kPark);
        park_worker();
      }
    }
    tls() = {nullptr, 0};
  }

  std::vector<std::unique_ptr<ChaseLevDeque<Task>>> deques_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  // sleepers_ and wake_epoch_ each get their own line: sleepers_ is
  // read by every push, wake_epoch_ only inside the (rare) park/wake
  // paths.
  alignas(64) std::atomic<int> sleepers_{0};
  alignas(64) std::atomic<std::uint64_t> wake_epoch_{0};
  std::atomic<std::uint64_t> idle_wakeups_{0};  // timed-out parks (cold path)
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
};

// Cooperative pause/resume gate, the one stop-the-world protocol of
// every runtime that must occasionally quiesce all running tasks
// (hier's join, internal and emergency collections; localheap's
// global collection; StwRuntime's collections):
//
//   - Tasks enter/leave the running set with activate()/deactivate(),
//     one seq_cst RMW on their own worker's cache line plus a flag
//     check, Dekker-paired with the stopper's flag-store/count-read.
//     Entering blocks while a stop is pending.
//   - Running tasks poll pending() at their safepoints (allocation slow
//     paths, fork/join boundaries) and park() through a pending stop.
//   - A stopper holds a StopGuard (below). Once it reports the stop
//     won, every other member of the running set is parked at a
//     safepoint and stays parked until the guard dies. A lost stop
//     means another was already pending and the caller was parked
//     through it instead.
//
// Progress is cooperative: an activated task that neither reaches a
// safepoint nor deactivates stalls a pending stop.
class SafepointGate;

// Process-global table of live SafepointGates so the test watchdog's
// SIGALRM handler can locate and dump them without locks or allocation
// (both forbidden in a signal handler). Lock-free CAS slots; a process
// with more than kSlots live gates just leaves the excess unreported.
class GateRegistry {
 public:
  static constexpr unsigned kSlots = 16;

  static void add(SafepointGate* g) {
    for (unsigned i = 0; i < kSlots; ++i) {
      SafepointGate* expect = nullptr;
      if (slots()[i].compare_exchange_strong(expect, g,
                                             std::memory_order_acq_rel)) {
        return;
      }
    }
  }

  static void remove(SafepointGate* g) {
    for (unsigned i = 0; i < kSlots; ++i) {
      SafepointGate* expect = g;
      slots()[i].compare_exchange_strong(expect, nullptr,
                                         std::memory_order_acq_rel);
    }
  }

  template <class Fn>
  static void for_each(Fn&& fn) {
    for (unsigned i = 0; i < kSlots; ++i) {
      if (SafepointGate* g = slots()[i].load(std::memory_order_acquire)) {
        fn(g);
      }
    }
  }

 private:
  static std::atomic<SafepointGate*>* slots() {
    static std::atomic<SafepointGate*> table[kSlots] = {};
    return table;
  }
};

class SafepointGate {
 public:
  explicit SafepointGate(unsigned workers) : slots_(workers) {
    GateRegistry::add(this);
  }
  ~SafepointGate() { GateRegistry::remove(this); }
  SafepointGate(const SafepointGate&) = delete;
  SafepointGate& operator=(const SafepointGate&) = delete;

  void activate(unsigned worker) {
    std::atomic<int>& cnt = slots_[worker].active;
    for (;;) {
      cnt.fetch_add(1, std::memory_order_seq_cst);
      if (__builtin_expect(!stop_flag_.load(std::memory_order_seq_cst), 1)) {
        return;
      }
      // A stop is pending: back out (waking its driver, which may be
      // waiting on the running count) and sit it out.
      phase::PhaseScope stall_scope(phase::Phase::kGateStall);
      const std::uint64_t t0 = trace::now_ns();
      std::unique_lock<std::mutex> lk(mu_);
      cnt.fetch_sub(1, std::memory_order_seq_cst);
      pause_cv_.notify_all();
      done_cv_.wait(lk, [&] { return !stop_pending_; });
      trace::record_gate_stall(t0, trace::now_ns() - t0);
    }
  }

  void deactivate(unsigned worker) {
    slots_[worker].active.fetch_sub(1, std::memory_order_seq_cst);
    if (__builtin_expect(stop_flag_.load(std::memory_order_seq_cst), 0)) {
      std::lock_guard<std::mutex> g(mu_);
      pause_cv_.notify_all();  // a stopper may be waiting on the count
    }
  }

  // Cheap safepoint poll.
  bool pending() const {
    return stop_flag_.load(std::memory_order_acquire);
  }

  // Park at a safepoint until the pending stop (if any) finishes. The
  // caller stays a member of the running set while parked.
  void park() {
    std::unique_lock<std::mutex> lk(mu_);
    wait_out(lk);
  }

  // ---- parked-mutator recruitment ----------------------------------
  //
  // While a stop is in progress the parked tasks are idle CPU: the
  // stop driver can hand them evacuation work instead. offer_team
  // installs a type-erased callback plus a slot range [next, limit);
  // each parked task claims successive slot indices and runs
  // fn(arg, slot) outside the gate lock, looping back for more until
  // the range is exhausted -- so one awake recruit claims any slots
  // late sleepers never get to, and every offered slot is guaranteed
  // to run. An empty range (a team of one) installs nothing and wakes
  // nobody. The driver runs its own slot, waits for the whole team
  // itself (ParallelCollector::finish spins until every slot exits),
  // and only then calls retract_team(), before end_stop().
  //
  // The callback is a plain function pointer because this header
  // cannot see gc_parallel.hpp (which includes it); collect_stopped
  // there passes a trampoline that downcasts `arg`.
  void offer_team(void (*fn)(void*, unsigned), void* arg, unsigned next,
                  unsigned limit) {
    if (next >= limit) {
      return;
    }
    std::lock_guard<std::mutex> g(mu_);
    team_fn_ = fn;
    team_arg_ = arg;
    team_next_ = next;
    team_limit_ = limit;
    done_cv_.notify_all();
  }

  void retract_team() {
    std::lock_guard<std::mutex> g(mu_);
    team_fn_ = nullptr;
  }

  // Parked tasks available for recruitment. Stable between a
  // successful begin_stop() and end_stop(): late activators back out
  // in activate() without ever incrementing paused_.
  unsigned parked() {
    std::lock_guard<std::mutex> g(mu_);
    return paused_;
  }

  // Watchdog dump: async-signal-safe (atomics and write(2) only; does
  // NOT take mu_, so paused_ is read racily -- acceptable when
  // diagnosing an already-hung process). Shows whether a stop is
  // pending, how many tasks have parked, and each worker slot's
  // running-set count -- enough to tell a stalled stop (some slot
  // active but never parking) from a lost wakeup (all parked, stop
  // never ending).
  void dump(int fd) const {
    detail::sig_write(fd, "  gate stop_flag=");
    detail::sig_write_i64(fd, stop_flag_.load(std::memory_order_relaxed));
    detail::sig_write(fd, " paused=");
    detail::sig_write_i64(fd, static_cast<long long>(paused_));
    detail::sig_write(fd, " active=[");
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (i != 0) {
        detail::sig_write(fd, " ");
      }
      detail::sig_write_i64(fd,
                            slots_[i].active.load(std::memory_order_relaxed));
    }
    detail::sig_write(fd, "]\n");
  }

 private:
  friend class StopGuard;

  struct alignas(64) Slot {
    std::atomic<int> active{0};
  };

  // True once every other running task is parked; false when another
  // stop was pending and the caller was parked through it instead.
  bool begin_stop() {
    std::unique_lock<std::mutex> lk(mu_);
    if (stop_pending_) {
      wait_out(lk);
      return false;
    }
    stop_pending_ = true;
    stop_flag_.store(true, std::memory_order_seq_cst);
    pause_cv_.wait(lk, [&] { return paused_ == running() - 1; });
    return true;
  }

  void end_stop() {
    std::lock_guard<std::mutex> g(mu_);
    stop_pending_ = false;
    stop_flag_.store(false, std::memory_order_seq_cst);
    done_cv_.notify_all();
  }

  unsigned running() const {
    long n = 0;
    for (const Slot& s : slots_) {
      n += s.active.load(std::memory_order_seq_cst);
    }
    return static_cast<unsigned>(n);
  }

  // Park until the pending stop finishes, claiming offered team slots
  // along the way (see offer_team). A recruit stays counted in paused_
  // while it runs its slot: the driver already holds the stop, and the
  // count matters only to begin_stop's quorum wait.
  void wait_out(std::unique_lock<std::mutex>& lk) {
    phase::PhaseScope stall_scope(phase::Phase::kGateStall);
    const std::uint64_t t0 = trace::now_ns();
    ++paused_;
    pause_cv_.notify_all();
    while (stop_pending_) {
      if (team_fn_ != nullptr && team_next_ < team_limit_) {
        const unsigned slot = team_next_++;
        void (*fn)(void*, unsigned) = team_fn_;
        void* arg = team_arg_;
        lk.unlock();
        fn(arg, slot);
        lk.lock();
        continue;
      }
      done_cv_.wait(lk);
    }
    --paused_;
    trace::record_gate_stall(t0, trace::now_ns() - t0);
  }

  std::vector<Slot> slots_;           // per-worker running-set counts
  std::mutex mu_;                     // stop paths only
  std::condition_variable pause_cv_;  // parked / left the running set
  std::condition_variable done_cv_;   // stop finished
  unsigned paused_ = 0;               // guarded by mu_
  bool stop_pending_ = false;         // guarded by mu_
  std::atomic<bool> stop_flag_{false};  // lock-free mirror of stop_pending_
  // Recruitment handoff (offer_team / retract_team), guarded by mu_.
  void (*team_fn_)(void*, unsigned) = nullptr;
  void* team_arg_ = nullptr;
  unsigned team_next_ = 0;
  unsigned team_limit_ = 0;
};

// A stop of a SafepointGate, released when the guard dies -- on every
// exit path, a collector's OS-level allocation failure included, so no
// driver can leave the world stopped. Test the guard: false means
// another driver's stop was pending and this thread was parked through
// it instead (possibly evacuating for it). A won stop bills its wall
// time, from every other running task parked to the release, to
// gc_pause_ns.
class StopGuard {
 public:
  StopGuard(SafepointGate& gate, StatsCell& stats)
      : gate_(gate), stats_(stats), won_(gate.begin_stop()),
        t0_(won_ ? trace::now_ns() : 0) {}
  ~StopGuard() {
    if (won_) {
      const std::uint64_t pause = trace::now_ns() - t0_;
      gate_.end_stop();
      stats_.gc_pause_ns.fetch_add(pause, std::memory_order_relaxed);
    }
  }
  StopGuard(const StopGuard&) = delete;
  StopGuard& operator=(const StopGuard&) = delete;

  explicit operator bool() const { return won_; }

 private:
  SafepointGate& gate_;
  StatsCell& stats_;
  bool won_;
  std::uint64_t t0_;
};

// The safepoint doorbell of hier's internal collection and
// localheap's global collection. Both are asked for by a promotion,
// which may hold raw pointers, so the request only rings the bell
// (ring_if); the next safepoint any running task reaches -- an
// allocation slow path or a fork2 boundary, where no raw Object* is
// held by contract -- polls it and drives the stop. Per poll, the
// runtime supplies what differs: whether any heap is over the
// threshold, and what the stop collects.
//
// `enabled` switches the safepoint machinery on (the runtime decides:
// a threshold, a heap budget, GC stress); with it off no task joins
// the running set and polls are skipped. `threshold` is in bytes, 0 =
// off. Under `stress` every poll rings, the threshold is 1 byte, and
// every 32nd victimless poll still stops the world, so the pause
// protocol runs even on programs that never cross a threshold.
class SafepointDoorbell {
 public:
  SafepointDoorbell(SafepointGate& gate, bool enabled, bool stress,
                    std::size_t threshold, phase::Phase tag)
      : gate_(gate),
        enabled_(enabled),
        stress_(stress),
        threshold_(stress ? 1 : threshold),
        tag_(tag) {}

  bool enabled() const { return enabled_; }

  // Called where collecting is unsafe: ring when `bytes` (the victim's
  // promoted-into bytes) reach the threshold.
  void ring_if(std::size_t bytes) {
    if (threshold_ != 0 && bytes >= threshold_) {
      rung_.store(true, std::memory_order_relaxed);
    }
  }

  // The safepoint poll: park through another driver's pending stop, or
  // drive a rung collection. `forced` (a collect_*_now call, an
  // emergency) drives a collection whether or not the bell rang, with
  // a 1-byte threshold. `any_victims(thr)` may only read atomics: it
  // races running mutators, and collect(thr) reruns the authoritative
  // victim scan on the stopped world.
  template <class AnyVictims, class Collect>
  void poll(bool forced, StatsCell& stats, AnyVictims&& any_victims,
            Collect&& collect) {
    if (!enabled_) {
      return;
    }
    if (stress_) {
      rung_.store(true, std::memory_order_relaxed);
    }
    if (gate_.pending()) {
      gate_.park();
      return;
    }
    if (!forced && !rung_.load(std::memory_order_relaxed)) {
      return;
    }
    const std::size_t thr = forced ? 1 : threshold_;
    if (thr == 0) {
      rung_.store(false, std::memory_order_relaxed);
      return;
    }
    if (!forced && !any_victims(thr) &&
        !(stress_ &&
          stress_tick_.fetch_add(1, std::memory_order_relaxed) % 32 == 0)) {
      rung_.store(false, std::memory_order_relaxed);
      return;
    }
    StopGuard stop(gate_, stats);
    if (!stop) {
      return;  // parked through another driver's stop instead
    }
    // The phase tag makes the collections below record as this
    // runtime's pause kind (trace::pause_kind_from_phase).
    phase::PhaseScope gc_scope(tag_);
    rung_.store(false, std::memory_order_relaxed);
    collect(thr);
  }

  // Running-set membership of the calling worker for a scope (a root
  // task's whole run()); nothing with the machinery off.
  class Member {
   public:
    Member(SafepointDoorbell& bell, unsigned worker)
        : gate_(bell.enabled_ ? &bell.gate_ : nullptr), worker_(worker) {
      if (gate_ != nullptr) {
        gate_->activate(worker_);
      }
    }
    ~Member() {
      if (gate_ != nullptr) {
        gate_->deactivate(worker_);
      }
    }
    Member(const Member&) = delete;
    Member& operator=(const Member&) = delete;

   private:
    SafepointGate* gate_;
    unsigned worker_;
  };

 private:
  SafepointGate& gate_;
  const bool enabled_;
  const bool stress_;
  const std::size_t threshold_;
  const phase::Phase tag_;
  std::atomic<bool> rung_{false};
  std::atomic<std::uint64_t> stress_tick_{0};
};

// Per-worker intrusive registry of a runtime's live task contexts, so a
// driver on a stopped world can walk every task's frames and heaps.
// Each list is mutated only from its own worker's thread, so its
// spinlock is uncontended except against a driver walking the lists.
// Ctx holds a `Link reg_` and befriends the registry.
template <class Ctx>
class CtxRegistry {
 public:
  // No member initialisers on purpose: add() writes every field, and
  // fork2 builds two contexts per call -- dead stores here show up in
  // the fork row.
  struct Link {
    Ctx* prev;
    Ctx* next;
    unsigned home;
  };

  explicit CtxRegistry(unsigned workers) : slots_(workers) {}

  // Register `c` on the calling thread's list (`worker` is its index).
  void add(Ctx* c, unsigned worker) {
    Slot& s = slots_[worker];
    c->reg_.home = worker;
    std::lock_guard<SpinLock> g(s.lock);
    c->reg_.prev = nullptr;
    c->reg_.next = s.head;
    if (s.head != nullptr) {
      s.head->reg_.prev = c;
    }
    s.head = c;
  }

  void remove(Ctx* c) {
    Slot& s = slots_[c->reg_.home];
    std::lock_guard<SpinLock> g(s.lock);
    if (c->reg_.prev != nullptr) {
      c->reg_.prev->reg_.next = c->reg_.next;
    } else {
      s.head = c->reg_.next;
    }
    if (c->reg_.next != nullptr) {
      c->reg_.next->reg_.prev = c->reg_.prev;
    }
  }

  // fn(Ctx*) for every registered context, each list under its lock.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      std::lock_guard<SpinLock> g(s.lock);
      for (Ctx* c = s.head; c != nullptr; c = c->reg_.next) {
        fn(c);
      }
    }
  }

 private:
  struct alignas(64) Slot {
    SpinLock lock;
    Ctx* head = nullptr;
  };

  std::vector<Slot> slots_;  // one per pool worker; fixed size
};

}  // namespace parmem
