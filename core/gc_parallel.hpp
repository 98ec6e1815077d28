// Team-based parallel heap evacuation -- the collection completion the
// paper's Section 5 plans ("each such collection is sequential" is
// team=1 here). A team of workers evacuates the live graph of one or
// more quiesced heaps into fresh to-space chunks:
//
//   - ownership claims: a worker claims an object by CASing its
//     forwarding word null -> kBusy (core/promote.hpp's fine-grained
//     encoding, reused verbatim), copies it, then publishes the real
//     forwarding pointer. Losers chase the winner's pointer; every
//     lost CAS is counted in claim_conflicts.
//   - grey packets: copied objects are batched into fixed-size packets
//     on per-worker deques; a worker out of local packets steals the
//     oldest packet from a teammate (FIFO end, like core/sched.hpp).
//   - per-worker to-space buffers: each worker copies into its own
//     Heap, so evacuation never contends on a shared bump pointer; the
//     buffers are spliced into the target heap (Heap::merge_from) when
//     the team terminates.
//
// The caller guarantees the collected heaps are quiesced: no mutator
// reads, writes, or allocates in them for the duration (a stopped
// world in a runtime; a standalone bench or test heap). Tracing stops
// at any chunk not owned by a collected heap, exactly like the leaf
// collector, and forwarding words of foreign objects are only ever
// chased, never claimed.
//
// Two ways to drive it:
//   - collect(), the standalone one-call surface for HeapRecord tests
//     and benches; it spawns its own team threads.
//   - collect_stopped() at the end of this file, the runtimes' one
//     "collect on a stopped world" path: it recruits the parked
//     mutators of a SafepointGate as the team (prepare()/run_worker()/
//     finish()), so a pause puts stopped mutators to work.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "core/deque.hpp"
#include "core/failpoint.hpp"
#include "core/gc_leaf.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/sched.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace parmem {

// A standalone heap handle for code that builds and collects heaps
// outside any runtime Ctx (bench drivers, tests): raw allocation over
// the chunk machinery plus wholesale chunk-list replacement.
class HeapRecord {
 public:
  HeapRecord(const HeapRecord&) = delete;
  HeapRecord& operator=(const HeapRecord&) = delete;

  // Reserve `bytes` (an object_bytes() footprint) by pointer bump; the
  // caller places the object with init_object(). Single-owner: no
  // locking, like a leaf heap.
  void* allocate_raw(std::size_t bytes) { return heap_.bump_raw(bytes); }

  // Replace this record's chunk list wholesale, releasing the current
  // one to the pool. The new list must be fully retired (obj_end set,
  // `tail` terminal); (nullptr, nullptr, 0) empties the record, e.g.
  // between benchmark repetitions.
  void install_chunk_list(Chunk* head, Chunk* tail,
                          std::size_t allocated_bytes) {
    heap_.release_all_chunks();
    if (head != nullptr) {
      heap_.adopt_chunks(head, tail, allocated_bytes);
    }
  }

  Heap& heap() { return heap_; }
  const Heap& heap() const { return heap_; }
  std::size_t allocated_bytes() const { return heap_.allocated_bytes(); }

 private:
  friend class HeapArena;
  HeapRecord(Heap* parent, std::uint32_t depth, ChunkPool* pool)
      : heap_(parent, depth, pool) {}

  Heap heap_;
};

// Owns a family of HeapRecords over one ChunkPool; records live until
// the arena dies (their chunks go back to the pool then).
class HeapArena {
 public:
  explicit HeapArena(ChunkPool& pool) : pool_(&pool) {}
  HeapArena(const HeapArena&) = delete;
  HeapArena& operator=(const HeapArena&) = delete;

  HeapRecord* create(HeapRecord* parent, std::uint32_t depth) {
    records_.push_back(std::unique_ptr<HeapRecord>(new HeapRecord(
        parent != nullptr ? &parent->heap_ : nullptr, depth, pool_)));
    return records_.back().get();
  }

 private:
  ChunkPool* pool_;
  std::vector<std::unique_ptr<HeapRecord>> records_;
};

namespace core {

struct ParallelGcOptions {
  unsigned team_size = 1;            // workers evacuating in parallel
  std::size_t packet_objects = 128;  // grey objects per work packet
};

struct ParallelGcWorkerStats {
  std::uint64_t objects_copied = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t packets_drained = 0;
  std::uint64_t packets_stolen = 0;
  std::uint64_t claim_conflicts = 0;  // lost forwarding-word CAS claims
  std::uint64_t cpu_ns = 0;  // thread CPU time in run_worker(): copy work
                             // plus termination spinning (gc_ns units)
};

struct ParallelGcOutcome {
  ParallelGcWorkerStats totals;                  // summed over the team
  std::vector<ParallelGcWorkerStats> per_worker;
  std::uint64_t claim_conflicts = 0;  // == totals.claim_conflicts
};

class ParallelCollector {
  struct Worker;  // defined below; named in member signatures above it

 public:
  ParallelCollector(ChunkPool& pool, std::vector<Heap*> heaps,
                    ParallelGcOptions opts)
      : pool_(&pool), heaps_(std::move(heaps)), opts_(opts) {
    if (opts_.team_size == 0) {
      opts_.team_size = 1;
    }
    if (opts_.packet_objects < 8) {
      opts_.packet_objects = 8;
    }
    if (heaps_.empty()) {
      throw std::invalid_argument("ParallelCollector needs >= 1 heap");
    }
  }

  ParallelCollector(ChunkPool& pool, const std::vector<HeapRecord*>& records,
                    ParallelGcOptions opts)
      : ParallelCollector(pool, heaps_of(records), opts) {}

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

  unsigned team_size() const { return opts_.team_size; }

  // One-call surface: evacuate with a self-spawned team. root_iter(fn)
  // must call fn(Object** slot) for every root slot of the collected
  // heaps; slots are rewritten in place when their referent moves.
  template <class RootIter>
  ParallelGcOutcome collect(RootIter&& root_iter) {
    prepare(root_iter);
    std::vector<std::thread> team;
    team.reserve(opts_.team_size - 1);
    for (unsigned i = 1; i < opts_.team_size; ++i) {
      team.emplace_back([this, i] { run_worker(i); });
    }
    run_worker(0);
    for (std::thread& t : team) {
      t.join();
    }
    return finish();  // rethrows any worker's allocation failure
  }

  // Split surface for runtimes that bring their own team: the driver
  // calls prepare(), then EXACTLY team_size workers (the driver plus
  // recruits) each call run_worker with a distinct slot in
  // [0, team_size); finish() may be called once the driver's own
  // run_worker returns (it waits for stragglers).
  template <class RootIter>
  void prepare(RootIter&& root_iter) {
    for (Heap* h : heaps_) {
      Chunk* c = h->detach_chunks();
      while (c != nullptr) {
        Chunk* next = c->next;
        // c->heap stays: it is the ownership test
        c->from_space.store(true, std::memory_order_relaxed);
        c->next = from_;
        from_ = c;
        c = next;
      }
    }
    roots_.clear();
    root_iter([this](Object** slot) { roots_.push_back(slot); });
    workers_.clear();
    for (unsigned i = 0; i < opts_.team_size; ++i) {
      workers_.push_back(std::make_unique<Worker>());
      Worker& w = *workers_.back();
      w.index = i;
      w.to = std::make_unique<Heap>(nullptr, heaps_[0]->depth(), pool_);
    }
    state_.store(0, std::memory_order_relaxed);
    root_cursor_.store(0, std::memory_order_relaxed);
    exited_.store(0, std::memory_order_relaxed);
    aborted_.store(false, std::memory_order_relaxed);
    abort_err_ = nullptr;
  }

  // Never throws: an allocation failure mid-evacuation (only possible
  // when the OS itself refuses memory -- the budget and injected
  // faults are exempt in collector context) aborts the whole team via
  // aborted_, and finish() rethrows it. That guarantees no hang and no
  // stranded kBusy word even then; the collected heaps are lost, so
  // the caller must treat the rethrow as fatal for the computation.
  void run_worker(unsigned slot) {
    failpoint::GcAllocScope gc_scope;
    phase::PhaseScope evac_scope(phase::Phase::kParallelEvac);
    Worker& ws = *workers_[slot];
    const std::uint64_t cpu0 = thread_cpu_ns();
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
    ws.stats.cpu_ns = thread_cpu_ns() - cpu0;
    exited_.fetch_add(1, std::memory_order_release);
  }

 private:
  void run_worker_impl(Worker& ws) {
    // Phase 1: forward the roots, batch-claimed off a shared cursor.
    // Claims make duplicate and cross-worker aliases idempotent.
    const std::size_t nroots = roots_.size();
    for (;;) {
      if (aborted_.load(std::memory_order_acquire)) {
        return;
      }
      std::size_t i = root_cursor_.fetch_add(kRootBatch,
                                             std::memory_order_relaxed);
      if (i >= nroots) {
        break;
      }
      std::size_t e = i + kRootBatch < nroots ? i + kRootBatch : nroots;
      for (; i < e; ++i) {
        Object** slot_p = roots_[i];
        Object* cur =
            std::atomic_ref<Object*>(*slot_p).load(std::memory_order_relaxed);
        if (cur == nullptr) {
          continue;
        }
        Object* fwd = forward(ws, cur);
        if (fwd != cur) {
          std::atomic_ref<Object*>(*slot_p).store(fwd,
                                                  std::memory_order_relaxed);
        }
      }
    }
    // Phase 2: drain grey packets until the whole team is idle with
    // nothing queued. A worker only goes idle with empty hands (its
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
      Packet* p = pop_local(ws);
      if (p == nullptr && ws.open != nullptr && ws.open->count > 0) {
        p = ws.open;
        ws.open = nullptr;
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
        if (idle_of(s) == opts_.team_size) {
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
         exited_.load(std::memory_order_acquire) != opts_.team_size;
         ++spins) {
      if (spins < 64) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    if (aborted_.load(std::memory_order_acquire)) {
      // A worker failed (OS-level allocation failure in collector
      // context). The collected heaps are not reconstructible; keep
      // every to-space buffer reachable by merging it into the target
      // (roots already rewritten point there), put from-space back so
      // nothing leaks, and surface the failure to the caller.
      Heap* target = heaps_.front();
      for (auto& w : workers_) {
        target->merge_from(*w->to);
      }
      release_from_space();
      std::rethrow_exception(abort_err_);
    }
    ParallelGcOutcome out;
    out.per_worker.reserve(workers_.size());
    Heap* target = heaps_.front();
    for (auto& w : workers_) {
      target->merge_from(*w->to);
      out.per_worker.push_back(w->stats);
      out.totals.objects_copied += w->stats.objects_copied;
      out.totals.bytes_copied += w->stats.bytes_copied;
      out.totals.packets_drained += w->stats.packets_drained;
      out.totals.packets_stolen += w->stats.packets_stolen;
      out.totals.claim_conflicts += w->stats.claim_conflicts;
      out.totals.cpu_ns += w->stats.cpu_ns;
    }
    out.claim_conflicts = out.totals.claim_conflicts;
    for (Heap* h : heaps_) {
      h->reset_remote_bytes();  // full collection settles promoted-into growth
    }
    release_from_space();
    return out;
  }

 private:
  static constexpr std::size_t kRootBatch = 64;
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

  struct alignas(64) Worker {
    unsigned index = 0;
    std::unique_ptr<Heap> to;  // private to-space buffer: no contention
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

  static std::vector<Heap*> heaps_of(const std::vector<HeapRecord*>& rs) {
    std::vector<Heap*> hs;
    hs.reserve(rs.size());
    for (HeapRecord* r : rs) {
      hs.push_back(&r->heap());
    }
    return hs;
  }

  bool collected(const Heap* h) const {
    for (const Heap* x : heaps_) {
      if (x == h) {
        return true;
      }
    }
    return false;
  }

  // Evacuate-or-resolve one reference. Returns the surviving address:
  // untouched for foreign (non-collected) objects, the to-space copy
  // otherwise. Exactly one worker wins the claim CAS per object.
  Object* forward(Worker& ws, Object* p) {
    for (;;) {
      p = Object::chase(p);  // spins past teammates' in-flight kBusy
      Chunk* c = chunk_of(p);
      if (!c->from_space.load(std::memory_order_relaxed) ||
          !collected(c->heap.load(std::memory_order_relaxed))) {
        return p;  // foreign, or already a to-space copy
      }
      // Pre-reserve the to-space bytes BEFORE claiming: from claim_fwd
      // to set_fwd nothing may throw, or the kBusy sentinel would
      // strand and hang every chaser. Any allocation failure surfaces
      // here, with the object still unclaimed and chaseable. (Object
      // headers are immutable, so reading the size pre-claim is safe.)
      ws.to->reserve(Object::size_bytes(p->nptr(), p->nscalar()));
      if (p->claim_fwd()) {
        break;
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
    ws.stats.packets_drained += 1;
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
    void* mem = std::malloc(sizeof(Packet) +
                            opts_.packet_objects * sizeof(Object*));
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
          throw OutOfMemory("packet_alloc",
                            sizeof(Packet) +
                                opts_.packet_objects * sizeof(Object*),
                            pool_->live_bytes(), pool_->budget(),
                            pool_->peak_bytes());
        }
        return;
      }
      ws.open = p;
    }
    p->slots()[p->count++] = n;
    if (p->count == opts_.packet_objects) {
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
    for (unsigned k = 1; k < opts_.team_size; ++k) {
      Worker& v = *workers_[(ws.index + k) % opts_.team_size];
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
  std::vector<Heap*> heaps_;  // collected set; heaps_[0] receives survivors
  ParallelGcOptions opts_;

  Chunk* from_ = nullptr;  // detached from-space chunks, released at finish
  std::vector<Object**> roots_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> state_{0};  // [queued packets : idle workers]
  std::atomic<std::size_t> root_cursor_{0};
  std::atomic<unsigned> exited_{0};
  std::atomic<bool> aborted_{false};  // a worker threw; team terminates
  SpinLock abort_lock_;
  std::exception_ptr abort_err_;
  SpinLock packet_mem_lock_;
  std::vector<void*> packet_mem_;
};

}  // namespace core

// Collect `victim` on a world stopped through `gate` (the caller holds a
// won StopGuard). With max_team <= 1 the sequential leaf collector runs.
// Otherwise the driver evacuates with up to max_team - 1 parked mutators
// recruited as its team -- alone when nobody is parked: on StwRuntime's
// merged heap a team of one stops the world about 10 % shorter than the
// leaf collector (serve at P=2 on a 4-vCPU VM: 1.65 against 1.83 ms
// per stop). `roots(fn)` calls fn(Object** slot) on every root slot of
// the victim. Bills gc_count, gc_bytes_copied and gc_ns (the driver's
// and the recruits' CPU time) once, and records one pause whose kind
// follows the driver's phase. Returns the live bytes evacuated. An
// allocation failure of the team (only an OS-level one: collector
// context is exempt from budgets and injected faults) rethrows here,
// fatal for the computation.
template <class RootIter>
std::size_t collect_stopped(SafepointGate& gate, ChunkPool& pool, Heap* victim,
                            unsigned max_team, StatsCell* stats,
                            RootIter&& roots) {
  if (max_team <= 1 || victim->chunks() == nullptr) {
    return leaf_gc_collect(victim, stats, roots);
  }
  const unsigned parked = gate.parked();
  const unsigned recruits = parked < max_team - 1 ? parked : max_team - 1;
  const trace::Ev kind = trace::pause_kind_from_phase(phase::current());
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t trace_t0 = trace::now_ns();
  const unsigned team = recruits + 1;
  core::ParallelCollector pc(pool, std::vector<Heap*>{victim},
                             core::ParallelGcOptions{team, 128});
  pc.prepare(roots);
  gate.offer_team(
      [](void* arg, unsigned slot) {
        static_cast<core::ParallelCollector*>(arg)->run_worker(slot);
      },
      &pc, 1, team);
  pc.run_worker(0);
  core::ParallelGcOutcome out;
  try {
    out = pc.finish();  // waits for every recruit; rethrows a team abort
  } catch (...) {
    gate.retract_team();
    throw;
  }
  gate.retract_team();
  const std::uint64_t pause_ns = trace::now_ns() - trace_t0;
  const std::size_t live = out.totals.bytes_copied;
  // The driver's whole span (prepare, its own slot, finish: detaching
  // and releasing from-space can outweigh the copying) plus each
  // recruit's slot.
  const std::uint64_t cpu = thread_cpu_ns() - cpu0 + out.totals.cpu_ns -
                            out.per_worker[0].cpu_ns;
  stats->gc_count.fetch_add(1, std::memory_order_relaxed);
  stats->gc_bytes_copied.fetch_add(live, std::memory_order_relaxed);
  stats->gc_ns.fetch_add(cpu, std::memory_order_relaxed);
  trace::record_gc_pause(kind, trace_t0, pause_ns, live);
  return live;
}

}  // namespace parmem
