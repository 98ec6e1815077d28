// Team-based heap evacuation, the one evacuator of every collection:
// leaf, join, internal, global, stw and emergency. The paper collects
// each heap sequentially ("each such collection is sequential"); that
// collector is a team of one here, and Section 5's planned completion,
// a parallel collection, is a larger team. A team of workers evacuates
// the live graph of one quiesced heap:
//
//   - ownership claims: a worker claims an object by CASing its
//     forwarding word null -> kBusy (core/promote.hpp's fine-grained
//     encoding, reused verbatim), copies it, then publishes the real
//     forwarding pointer. Losers chase the winner's pointer; every
//     lost CAS is counted in claim_conflicts. A team of one has no
//     one to race and copies without claiming.
//   - grey packets: copied objects are batched into fixed-size packets
//     on per-worker deques; a worker out of local packets steals the
//     oldest packet from a teammate (FIFO end, like core/sched.hpp).
//   - to-space: worker 0 (the driver) copies into the collected heap
//     itself, so survivors keep the heap's chunk-size step and its bump
//     chunk stays open for the owner. Each recruit copies into a
//     private Heap, so evacuation never contends on a shared bump
//     pointer; those buffers are spliced into the heap
//     (Heap::merge_from) when the team terminates.
//
// The caller guarantees the collected heap is quiesced: no mutator
// reads, writes, or allocates in it for the duration (its owner
// collecting its own leaf, a stopped world, or a standalone bench or
// test heap). Tracing stops at any chunk the collected heap does not
// own: the hierarchy invariant keeps ancestors from pointing down into
// it, and forwarding words of foreign objects are only ever chased,
// never claimed. Stale promotion copies in the heap chase to their
// master and die with the from-space chunks.
//
// Two ways to drive it:
//   - collect(), the one-call surface: a team of one on the calling
//     thread for a leaf collection (core/gc_leaf.hpp), or a
//     self-spawned team for tests and benches that collect plain Heaps.
//   - collect_stopped() at the end of this file, the runtimes' one
//     "collect on a stopped world" path: it recruits the parked
//     mutators of a SafepointGate as the team (prepare()/run_worker()/
//     finish()), so a pause puts stopped mutators to work.
// GcPause bills a runtime's collection of either kind.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "core/deque.hpp"
#include "core/failpoint.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/sched.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace parmem {

namespace core {

struct ParallelGcWorkerStats {
  std::uint64_t objects_copied = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t packets_stolen = 0;
  std::uint64_t claim_conflicts = 0;  // lost forwarding-word CAS claims
  // A recruit's thread CPU time in run_worker(): copy work plus
  // termination spinning (gc_ns units). 0 for the driver (slot 0): its
  // caller's GcPause clocks the driver's whole span, and two more clock
  // reads would be a third of a small leaf collection's fixed cost.
  std::uint64_t cpu_ns = 0;
};

struct ParallelGcOutcome {
  ParallelGcWorkerStats totals;  // summed over the team
};

class ParallelCollector {
  struct Worker;  // defined below; named in member signatures above it

 public:
  static constexpr std::size_t kPacketObjects = 126;  // greys per packet

  // Evacuates `heap` with `team` workers (0 counts as 1).
  ParallelCollector(ChunkPool& pool, Heap* heap, unsigned team)
      : pool_(&pool), heap_(heap), team_(team == 0 ? 1 : team) {}

  ParallelCollector(const ParallelCollector&) = delete;
  ParallelCollector& operator=(const ParallelCollector&) = delete;

  ~ParallelCollector() {
    // Abandoned mid-cycle (exception before finish()): put the
    // detached from-space chunks back so nothing leaks.
    release_from_space();
    for (void* p : packet_mem_) {
      std::free(p);
    }
  }

  unsigned team_size() const { return team_; }

  // One-call surface: evacuate with a self-spawned team. root_iter(fn)
  // must call fn(Object** slot) for every root slot of the collected
  // heap; slots are rewritten in place when their referent moves.
  template <class RootIter>
  ParallelGcOutcome collect(RootIter&& root_iter) {
    prepare(root_iter);
    std::vector<std::thread> team;
    team.reserve(team_ - 1);
    for (unsigned i = 1; i < team_; ++i) {
      team.emplace_back([this, i] { run_worker(i); });
    }
    run_worker(0);
    for (std::thread& t : team) {
      t.join();
    }
    return finish();  // rethrows any worker's allocation failure
  }

  // Split surface for runtimes that bring their own team: the driver
  // calls prepare(), then EXACTLY team_size workers (the driver in slot
  // 0, plus recruits) each call run_worker with a distinct slot in
  // [0, team_size); the driver calls finish() once its own run_worker
  // returns (it waits for stragglers).
  //
  // prepare() flips the heap to from-space and forwards each root as
  // root_iter enumerates it, as worker 0 on the calling thread: the
  // slot is read while the enumeration still has it in cache, and the
  // root objects' copies become worker 0's grey packets, which the
  // recruits steal once they run. It also takes the driver's phase,
  // which every worker's samples carry: a leaf copy stays leaf-GC and
  // a recruit's copy counts under the pause it serves. Like a team
  // abort, an OS-level allocation failure here (the only kind in
  // collector context) throws and loses the heap.
  template <class RootIter>
  void prepare(RootIter&& root_iter) {
    phase_ = phase::current();
    from_ = heap_->detach_chunks();
    for (Chunk* c = from_; c != nullptr; c = c->next) {
      // c->heap stays: it is the ownership test
      c->from_space.store(true, std::memory_order_relaxed);
    }
    workers_ = std::make_unique<Worker[]>(team_);
    for (unsigned i = 0; i < team_; ++i) {
      Worker& w = workers_[i];
      w.index = i;
      if (i == 0) {
        w.to = heap_;
      } else {
        w.buffer = std::make_unique<Heap>(nullptr, heap_->depth(), pool_);
        w.to = w.buffer.get();
      }
    }
    state_.store(0, std::memory_order_relaxed);
    exited_.store(0, std::memory_order_relaxed);
    aborted_.store(false, std::memory_order_relaxed);
    abort_err_ = nullptr;
    failpoint::GcAllocScope gc_scope;
    Worker& driver = workers_[0];
    root_iter([this, &driver](Object** slot) {
      Object* cur =
          std::atomic_ref<Object*>(*slot).load(std::memory_order_relaxed);
      if (cur == nullptr) {
        return;
      }
      // Write back only a moved slot. Only slots holding this heap's
      // objects move, and a leaf's are touched by its owner alone; a
      // sibling branch may publish into a slot holding null or a
      // foreign pointer (the local-heap runtime), so this pass stays
      // read-only on those and loses no update.
      Object* fwd = forward(driver, cur);
      if (fwd != cur) {
        std::atomic_ref<Object*>(*slot).store(fwd, std::memory_order_relaxed);
      }
    });
  }

  // Never throws: an allocation failure mid-evacuation (only possible
  // when the OS itself refuses memory -- the budget and injected
  // faults are exempt in collector context) aborts the whole team via
  // aborted_, and finish() rethrows it. That guarantees no hang and no
  // stranded kBusy word even then; the collected heap is lost, so the
  // caller must treat the rethrow as fatal for the computation.
  void run_worker(unsigned slot) {
    failpoint::GcAllocScope gc_scope;
    phase::PhaseScope phase_scope(phase_);  // the collection's own phase
    Worker& ws = workers_[slot];
    const std::uint64_t cpu0 = slot == 0 ? 0 : thread_cpu_ns();
    try {
      run_worker_impl(ws);
    } catch (...) {
      {
        std::lock_guard<SpinLock> g(abort_lock_);
        if (!abort_err_) {
          abort_err_ = std::current_exception();
        }
      }
      aborted_.store(true, std::memory_order_release);
    }
    if (slot != 0) {
      ws.stats.cpu_ns = thread_cpu_ns() - cpu0;
    }
    exited_.fetch_add(1, std::memory_order_release);
  }

 private:
  void run_worker_impl(Worker& ws) {
    // Drain grey packets until the whole team is idle with nothing
    // queued. A worker only goes idle with empty hands (its
    // partial open packet drained, its private overflow list empty),
    // so idle==team && queued==0 is a stable no-work-exists state.
    for (;;) {
      if (aborted_.load(std::memory_order_acquire)) {
        return;
      }
      if (!ws.overflow.empty()) {
        // Degraded mode (packet allocation failed): scan one object
        // off the private overflow list. Worker-private, so it needs
        // no queued accounting and cannot be stolen.
        Object* o = ws.overflow.back();
        ws.overflow.pop_back();
        scan_object(ws, o);
        continue;
      }
      // The open packet (never empty) first: it is private and hot,
      // and the full packets left queued stay stealable.
      Packet* p = ws.open;
      ws.open = nullptr;
      if (p == nullptr) {
        p = pop_local(ws);
      }
      if (p == nullptr) {
        p = steal(ws);
      }
      if (p != nullptr) {
        drain(ws, p);
        continue;
      }
      std::uint64_t s =
          state_.fetch_add(kIdleOne, std::memory_order_acq_rel) + kIdleOne;
      bool done = false;
      for (unsigned spins = 0;; ++spins) {
        if (aborted_.load(std::memory_order_acquire)) {
          done = true;  // a teammate failed: terminate without the quorum
          break;
        }
        if (queued_of(s) > 0) {
          state_.fetch_sub(kIdleOne, std::memory_order_acq_rel);
          break;  // visible work: rejoin the loop
        }
        if (idle_of(s) == team_) {
          done = true;  // every worker idle, nothing queued: terminate
          break;
        }
        if (spins < 64) {
          cpu_relax();
        } else {
          std::this_thread::yield();
        }
        s = state_.load(std::memory_order_acquire);
      }
      if (done) {
        break;
      }
    }
  }

 public:

  ParallelGcOutcome finish() {
    // Stragglers are past their last packet; still escalate to yield
    // in case one was preempted right before its exited_ store.
    for (unsigned spins = 0;
         exited_.load(std::memory_order_acquire) != team_;
         ++spins) {
      if (spins < 64) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    // Every survivor now sits in the heap. On an abort too: the
    // rewritten roots point into the recruits' buffers.
    for (unsigned i = 1; i < team_; ++i) {
      heap_->merge_from(*workers_[i].buffer);
    }
    if (aborted_.load(std::memory_order_acquire)) {
      // A worker failed (OS-level allocation failure in collector
      // context). The collected heap is not reconstructible; put
      // from-space back so nothing leaks and surface the failure.
      release_from_space();
      std::rethrow_exception(abort_err_);
    }
    ParallelGcOutcome out;
    for (unsigned i = 0; i < team_; ++i) {
      const ParallelGcWorkerStats& w = workers_[i].stats;
      out.totals.objects_copied += w.objects_copied;
      out.totals.bytes_copied += w.bytes_copied;
      out.totals.packets_stolen += w.packets_stolen;
      out.totals.claim_conflicts += w.claim_conflicts;
      out.totals.cpu_ns += w.cpu_ns;
    }
    heap_->note_collected(out.totals.bytes_copied);
    release_from_space();
    return out;
  }

 private:
  static constexpr std::uint64_t kIdleOne = 1;
  static constexpr std::uint64_t kQueuedOne = std::uint64_t{1} << 32;
  static std::uint32_t idle_of(std::uint64_t s) {
    return static_cast<std::uint32_t>(s);
  }
  static std::uint32_t queued_of(std::uint64_t s) {
    return static_cast<std::uint32_t>(s >> 32);
  }

  struct Packet {
    Packet* next = nullptr;
    std::uint32_t count = 0;
    Object** slots() { return reinterpret_cast<Object**>(this + 1); }
  };
  // One malloc per packet. glibc serves a request of at most 1,032
  // bytes from its per-thread cache (tcache); a larger packet would
  // take the arena on every malloc and free, once per packet of every
  // collection, leaf ones included.
  static constexpr std::size_t kPacketBytes =
      sizeof(Packet) + kPacketObjects * sizeof(Object*);
  static_assert(kPacketBytes <= 1032, "a packet must fit glibc's tcache");

  struct alignas(64) Worker {
    unsigned index = 0;
    Heap* to = nullptr;  // slot 0: the collected heap; a recruit: buffer
    std::unique_ptr<Heap> buffer;  // a recruit's private to-space
    Packet* open = nullptr;    // partial packet being filled
    Packet* free = nullptr;    // recycled packets
    std::vector<Object*> overflow;  // degraded-mode greys (no packets)
    // Lock-free grey-packet deque (same Chase-Lev core as the task
    // scheduler): the owner pushes/pops full packets at the bottom,
    // thieves take the oldest at the top. The [queued:idle] state_
    // word stays the termination authority -- a transiently wrapped
    // queued count (thief's decrement landing before the pusher's
    // increment) only keeps workers spinning, never terminates early.
    ChaseLevDeque<Packet> deque{32};
    ParallelGcWorkerStats stats;
  };

  // Evacuate-or-resolve one reference. Returns the surviving address:
  // untouched for foreign (non-collected) objects, the to-space copy
  // otherwise. Exactly one worker wins the claim CAS per object.
  Object* forward(Worker& ws, Object* p) {
    for (;;) {
      p = Object::chase(p);  // spins past teammates' in-flight kBusy
      Chunk* c = chunk_of(p);
      if (!c->from_space.load(std::memory_order_relaxed) ||
          c->heap.load(std::memory_order_relaxed) != heap_) {
        return p;  // foreign, or already a to-space copy
      }
      // Pre-reserve the to-space bytes BEFORE claiming: from claim_fwd
      // to set_fwd nothing may throw, or the kBusy sentinel would
      // strand and hang every chaser. Any allocation failure surfaces
      // here, with the object still unclaimed and chaseable. (Object
      // headers are immutable, so reading the size pre-claim is safe.)
      ws.to->reserve(Object::size_bytes(p->nptr(), p->nscalar()));
      if (team_ == 1 || p->claim_fwd()) {
        break;  // a team of one has no teammate to race: no claim needed
      }
      ws.stats.claim_conflicts += 1;  // lost: chase the winner's copy
    }
    Object* n = ws.to->bump_alloc(p->nptr(), p->nscalar());  // reserved above
    std::size_t payload = 8u * (std::size_t{p->nptr()} + p->nscalar());
    std::memcpy(n->scalars(), p->scalars(), payload);
    p->set_fwd(n);  // release: payload visible before the pointer
    ws.stats.objects_copied += 1;
    ws.stats.bytes_copied += n->size();
    push_grey(ws, n);
    return n;
  }

  // Forward every field of one copied object (the per-slot work of
  // drain, shared with the degraded no-packet path).
  void scan_object(Worker& ws, Object* o) {
    std::uint32_t np = o->nptr();
    Object** fields = o->ptrs();
    for (std::uint32_t j = 0; j < np; ++j) {
      if (fields[j] != nullptr) {
        fields[j] = forward(ws, fields[j]);  // only this worker scans o
      }
    }
  }

  void drain(Worker& ws, Packet* p) {
    for (std::uint32_t i = 0; i < p->count; ++i) {
      scan_object(ws, p->slots()[i]);
    }
    p->count = 0;
    p->next = ws.free;
    ws.free = p;
  }

  // May return nullptr: the packet_alloc failpoint fired, or malloc
  // itself refused. Callers degrade to the private overflow list then
  // -- evacuation completes correctly, just with less steal-able work.
  Packet* take_packet(Worker& ws) {
    if (ws.free != nullptr) {
      Packet* p = ws.free;
      ws.free = p->next;
      p->next = nullptr;
      return p;
    }
    if (__builtin_expect(
            failpoint::triggered(failpoint::Site::kPacketAlloc), 0)) {
      return nullptr;
    }
    void* mem = std::malloc(kPacketBytes);
    if (mem == nullptr) {
      return nullptr;
    }
    {
      std::lock_guard<SpinLock> g(packet_mem_lock_);
      packet_mem_.push_back(mem);
    }
    return new (mem) Packet();
  }

  void push_grey(Worker& ws, Object* n) {
    Packet* p = ws.open;
    if (p == nullptr) {
      p = take_packet(ws);
      if (p == nullptr) {
        // Degraded mode: remember the grey privately. If even this
        // tiny growth fails the machine is truly out of memory; the
        // typed throw (n is already copied AND published, so its
        // children would go unscanned) aborts the team via run_worker.
        try {
          ws.overflow.push_back(n);
        } catch (...) {
          throw OutOfMemory("packet_alloc", kPacketBytes,
                            pool_->live_bytes(), pool_->budget(),
                            pool_->peak_bytes());
        }
        return;
      }
      ws.open = p;
    }
    p->slots()[p->count++] = n;
    if (p->count == kPacketObjects) {
      ws.deque.push(p);
      state_.fetch_add(kQueuedOne, std::memory_order_acq_rel);
      ws.open = nullptr;
    }
  }

  Packet* pop_local(Worker& ws) {
    Packet* p = ws.deque.pop();
    if (p != nullptr) {
      state_.fetch_sub(kQueuedOne, std::memory_order_acq_rel);
    }
    return p;
  }

  // Steal the OLDEST packet from a teammate: early greys root the
  // widest unexplored subgraphs (same heuristic as the task scheduler).
  // A lost steal CAS reads as an empty victim; the drain loop retries
  // while state_ still shows queued packets, so nothing is missed.
  Packet* steal(Worker& ws) {
    for (unsigned k = 1; k < team_; ++k) {
      Worker& v = workers_[(ws.index + k) % team_];
      Packet* p = v.deque.steal();
      if (p != nullptr) {
        state_.fetch_sub(kQueuedOne, std::memory_order_acq_rel);
        ws.stats.packets_stolen += 1;
        return p;
      }
    }
    return nullptr;
  }

  void release_from_space() {
    while (from_ != nullptr) {
      Chunk* n = from_->next;
      pool_->release(from_);
      from_ = n;
    }
  }

  ChunkPool* pool_;
  Heap* heap_;  // collected; receives every survivor
  unsigned team_;
  phase::Phase phase_ = phase::Phase::kMutator;  // the driver's, at prepare

  Chunk* from_ = nullptr;  // detached from-space chunks, released at finish
  std::unique_ptr<Worker[]> workers_;  // slot 0 is the driver
  std::atomic<std::uint64_t> state_{0};  // [queued packets : idle workers]
  std::atomic<unsigned> exited_{0};
  std::atomic<bool> aborted_{false};  // a worker threw; team terminates
  SpinLock abort_lock_;
  std::exception_ptr abort_err_;
  SpinLock packet_mem_lock_;
  std::vector<void*> packet_mem_;
};

// The billing of one collection, opened before it starts and closed by
// finish(): gc_count once, the bytes it copied, gc_ns for the
// collecting threads' CPU time, and exactly one pause event. The pause
// KIND comes from the ambient phase (a collection driven under a
// join-GC scope is a join pause); outside any collection phase the
// thread is retagged leaf-GC for the pause's span.
class GcPause {
 public:
  GcPause()
      : trace_t0_(trace::now_ns()),
        cpu0_(thread_cpu_ns()),
        ambient_(phase::current()),
        kind_(trace::pause_kind_from_phase(ambient_)),
        scope_(phase::is_gc(ambient_) ? ambient_ : phase::Phase::kLeafGc) {}
  GcPause(const GcPause&) = delete;
  GcPause& operator=(const GcPause&) = delete;

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

}  // namespace core

// Collect `heaps` on a world stopped through `gate` (the caller holds a
// won StopGuard): every heap after the first is merged into heaps[0],
// which is then evacuated and receives every survivor. The driver
// evacuates with up to max_team - 1 parked mutators recruited as its
// team, and alone when max_team is 0 or 1 or nobody is parked: the
// paper's sequential collector is that team of one. `roots(fn)` calls
// fn(Object** slot) on every root slot of the collected heaps. Bills
// gc_count, gc_bytes_copied and gc_ns (the driver's and the recruits'
// CPU time) once, and records one pause whose kind follows the
// driver's phase; both clocks start before the merge, so the pause
// covers the whole stopped collection. Returns the live bytes
// evacuated. An allocation failure of the team (only an OS-level one:
// collector context is exempt from budgets and injected faults)
// rethrows here, fatal for the computation.
template <class RootIter>
std::size_t collect_stopped(SafepointGate& gate, ChunkPool& pool,
                            const std::vector<Heap*>& heaps, unsigned max_team,
                            StatsCell* stats, RootIter&& roots) {
  core::GcPause pause;
  Heap* victim = heaps.front();
  for (std::size_t i = 1; i < heaps.size(); ++i) {
    victim->merge_from(*heaps[i]);
  }
  if (victim->chunks() == nullptr) {
    return 0;  // nothing allocated since the last collection
  }
  core::ParallelGcOutcome out;
  {
    const unsigned team = std::min(gate.parked() + 1, std::max(max_team, 1u));
    core::ParallelCollector pc(pool, victim, team);
    pc.prepare(roots);
    gate.offer_team(
        [](void* arg, unsigned slot) {
          static_cast<core::ParallelCollector*>(arg)->run_worker(slot);
        },
        &pc, 1, team);
    pc.run_worker(0);
    try {
      out = pc.finish();  // waits for every recruit; rethrows a team abort
    } catch (...) {
      gate.retract_team();
      throw;
    }
    gate.retract_team();
  }  // the collector's teardown is part of the pause too
  // The pause's own clock covers the driver's whole span (merge,
  // prepare, its slot, finish: detaching and releasing from-space can
  // outweigh the copying); add each recruit's slot.
  pause.finish(stats, out.totals.bytes_copied, /*kept=*/false,
               out.totals.cpu_ns);
  return out.totals.bytes_copied;
}

}  // namespace parmem
