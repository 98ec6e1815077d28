// Chunked heaps arranged in a tree that mirrors the fork-join task
// tree. A heap is a singly linked list of chunks, each starting on a
// 256 KiB boundary so `object -> owning heap` is one mask plus one load
// (no per-object heap word, which keeps allocation at a pointer bump).
//
// ChunkPool is the only source of chunk memory. Every chunk up to the
// 256 KiB full size, from the 4 KiB starter a new leaf heap opens
// upwards, sits at the start of its own 256 KiB-aligned slot. Slots
// are carved from large anonymous mappings (regions), and a chunk only
// ever touches its first `bytes`, so a starter costs a page or two of
// RSS however much address space its slot spans. Released chunks are
// recycled by size class through one free list per class without a
// syscall; a miss in one class takes a free slot of another class
// before a new slot is carved, and ChunkPool::trim
// returns the pages of surplus free slots to the OS. Oversized objects
// get a dedicated multiple-of-256KiB mapping of their own; their start
// address still lies inside the first aligned block, so the mask trick
// holds.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include <sys/mman.h>

#include "core/failpoint.hpp"
#include "core/object.hpp"
#include "core/stats.hpp"

#if defined(__SANITIZE_THREAD__)
#define PARMEM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PARMEM_TSAN 1
#endif
#endif
#if defined(PARMEM_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define PARMEM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARMEM_ASAN 1
#endif
#endif
#if defined(PARMEM_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace parmem {

class Heap;

inline constexpr std::size_t kChunkBytesLog2 = 18;
inline constexpr std::size_t kChunkBytes = std::size_t{1} << kChunkBytesLog2;
inline constexpr std::size_t kChunkHeaderBytes = 64;
inline constexpr std::size_t kChunkPayload = kChunkBytes - kChunkHeaderBytes;

// Leaf heaps start on a small chunk that doubles up to kChunkBytes, so
// a fine-grained fork tree of thousands of tiny leaves doesn't pin a
// full 256 KiB per leaf. Small chunks are still kChunkBytes-ALIGNED
// (so chunk_of()'s mask finds the header) but only kMinChunkBytes big.
inline constexpr std::size_t kMinChunkBytesLog2 = 12;
inline constexpr std::size_t kMinChunkBytes = std::size_t{1}
                                              << kMinChunkBytesLog2;

struct alignas(kChunkHeaderBytes) Chunk {
  std::atomic<Heap*> heap{nullptr};  // owning heap; retargeted at join-merge
  Chunk* next = nullptr;
  char* obj_end = nullptr;  // end of allocated objects; valid when retired
  std::size_t bytes = 0;    // total footprint including header
  std::size_t map_slack = 0;  // oversized: mapped bytes before the header
  bool oversized = false;
  // Transient mark used by the collectors. Atomic like `heap`: a
  // collector reads it through foreign pointers in ancestor frames
  // while the chunk's owner may be handing it out or collecting it.
  std::atomic<bool> from_space{false};
  // First word of this chunk's bits in a leaf mark pass's side bitmap
  // (leaf_gc_mark); assigned afresh by each mark of the owning heap and
  // read only by that mark.
  std::size_t mark_word = 0;

  char* data() { return reinterpret_cast<char*>(this) + kChunkHeaderBytes; }
  char* data_limit() { return reinterpret_cast<char*>(this) + bytes; }
};

static_assert(sizeof(Chunk) <= kChunkHeaderBytes,
              "chunk header must fit its reserved prefix");

inline Chunk* chunk_of(const Object* o) {
  return reinterpret_cast<Chunk*>(reinterpret_cast<std::uintptr_t>(o) &
                                  ~(kChunkBytes - 1));
}

inline Heap* heap_of(const Object* o) {
  return chunk_of(o)->heap.load(std::memory_order_relaxed);
}

// Polite spin: tells the core we are in a busy-wait so the sibling
// hyperthread gets the pipeline. Shared by every spin site (SpinLock,
// the scheduler's steal loop, GC-team termination detection).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Tiny spinlock guarding fine-grained remote bumps into an internal
// heap; promotion critical sections are a handful of instructions.
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      cpu_relax();
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

// Per-runtime chunk recycler and the only source of chunk memory (see
// the file comment for the slot layout). Each size class, 4 KiB to
// 256 KiB, has one free list, and all of them sit behind one mutex; the
// OS is asked only when no free slot of any class is left. There is no
// per-thread cache in front of the lists: one served under 6 % of
// acquires, because a collection releases hundreds of chunks at once,
// more than a small cache holds.
class ChunkPool {
 public:
  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  // Unmaps every region, which frees pooled and live slots alike (the
  // heaps using this pool are gone by now); oversized chunks were
  // unmapped when released.
  ~ChunkPool() {
#if defined(PARMEM_ASAN)
    // munmap leaves ASan's shadow as it is, so the poison goes first or
    // a later mapping of these addresses would start poisoned. Only
    // pooled payloads and emptied slots carry any (see hand_out).
    for (Chunk* head : free_.head) {
      for (Chunk* c = head; c != nullptr; c = c->next) {
        unpoison(c->data(), c->bytes - kChunkHeaderBytes);
      }
    }
    for (char* slot : empty_) {
      unpoison(slot, kChunkBytes);
    }
#endif
    for (char* raw : regions_) {
      unmap_with_slack(raw, kRegionBytes);
    }
  }

  // payload_bytes: object bytes the caller needs to fit in one chunk.
  // size_hint: the heap's current chunk-growth step; grown as needed to
  // fit the payload and clamped to [kMinChunkBytes, kChunkBytes].
  //
  // Throws parmem::OutOfMemory when handing out the chunk would push
  // live_bytes past the budget (or the chunk_alloc failpoint fires on a
  // fresh slot, or the OS refuses the memory). Collector-context
  // allocations (failpoint::gc_exempt) bypass budget and faults: a
  // mid-evacuation failure is not unwindable, and to-space is bounded
  // by live data.
  Chunk* acquire(std::size_t payload_bytes,
                 std::size_t size_hint = kChunkBytes) {
    if (payload_bytes > kChunkPayload) {
      return map_oversized(payload_bytes);
    }
    std::size_t want = size_hint < kMinChunkBytes ? kMinChunkBytes
                       : size_hint > kChunkBytes  ? kChunkBytes
                                                  : size_hint;
    while (want - kChunkHeaderBytes < payload_bytes) {
      want <<= 1;  // terminates: payload fits a kChunkBytes chunk
    }
    return hand_out(take(class_of(want), want), want);
  }

  // Returns a chunk to the pool. A slot chunk goes to its class's list;
  // its payload keeps its pages (reuse costs no fault) and is poisoned
  // under ASan until handed out again. An oversized chunk is unmapped.
  void release(Chunk* c) {
    const std::size_t bytes = c->bytes;
    if (c->oversized) {
      unmap_with_slack(reinterpret_cast<char*>(c) - c->map_slack, bytes);
    } else {
      poison(c->data(), bytes - kChunkHeaderBytes);
      std::lock_guard<std::mutex> g(mu_);
      free_.push(c, class_of(bytes));
    }
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // Returns the pages of free slots to the OS until at most keep_bytes
  // of chunk memory stay pooled. Surplus slots are sorted by
  // address and each contiguous run is discarded with one madvise, so
  // the syscall count follows the fragmentation of the free set rather
  // than its size. The discarded slots are handed out again, before
  // any new slot is carved, and fault their pages back in on touch.
  // Collectors that just emptied a large from-space call this; without
  // it the pool pins the process at its all-time chunk high-water.
  void trim(std::size_t keep_bytes) {
    std::lock_guard<std::mutex> g(mu_);
    const std::size_t first = empty_.size();
    std::size_t pooled = 0;
    // Largest classes are kept first: they are what a collection's
    // to-space asks for next.
    for (unsigned cls = kClasses; cls-- > 0;) {
      Chunk** p = &free_.head[cls];
      while (*p != nullptr) {
        Chunk* c = *p;
        if (pooled + c->bytes <= keep_bytes) {
          pooled += c->bytes;
          p = &c->next;
        } else {
          *p = c->next;
          // Never reallocates: map_region reserved a place for every
          // slot.
          empty_.push_back(reinterpret_cast<char*>(c));
        }
      }
    }
    // Discarding under mu_ keeps a slot off empty_'s usable range until
    // its pages are gone; trims are rare (global-GC epilogues).
    std::sort(empty_.begin() + first, empty_.end());
    for (std::size_t i = first; i < empty_.size();) {
      std::size_t j = i + 1;
      while (j < empty_.size() && empty_[j] == empty_[j - 1] + kChunkBytes) {
        ++j;
      }
      discard(empty_[i], static_cast<std::size_t>(empty_[j - 1] - empty_[i]) +
                             kChunkBytes);
      i = j;
    }
  }

  // Bytes currently handed out to heaps (excludes pooled free chunks).
  std::size_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

  // Hard byte budget on handed-out chunks (0 = unlimited). Enforced in
  // acquire(); the owning runtime catches the resulting OutOfMemory on
  // its allocation slow path, runs its emergency-collection cascade,
  // and retries once before letting the exception escape.
  void set_budget(std::size_t bytes) {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t budget() const {
    return budget_.load(std::memory_order_relaxed);
  }

 private:
  // One class per chunk size, 4 KiB .. 256 KiB.
  static constexpr unsigned kClasses =
      kChunkBytesLog2 - kMinChunkBytesLog2 + 1;
  static unsigned class_of(std::size_t bytes) {
    return static_cast<unsigned>(__builtin_ctzll(bytes)) -
           static_cast<unsigned>(kMinChunkBytesLog2);
  }

  // Slots per mmap'd region: 256 (64 MiB of address space). A region is
  // reserved with MAP_NORESERVE and costs RSS only for the pages chunks
  // touch, so the size only trades mmap calls against unused address
  // space. Holding 80,000 live starters maps 313 regions and adds 7
  // lines to /proc/self/maps (adjacent regions merge into one VMA); an
  // aligned mapping per chunk reaches vm.max_map_count (65,530) there.
  static constexpr std::size_t kRegionBytes = std::size_t{64} << 20;
  static constexpr std::size_t kSlotsPerRegion = kRegionBytes / kChunkBytes;

  void check_budget(std::size_t incoming) {
    std::size_t b = budget_.load(std::memory_order_relaxed);
    if (__builtin_expect(b != 0, 0) && !failpoint::gc_exempt() &&
        live_bytes_.load(std::memory_order_relaxed) + incoming > b) {
      throw OutOfMemory("chunk_alloc", incoming, live_bytes(), b,
                        peak_bytes());
    }
  }

  // gc_exempt is checked FIRST: triggered() consumes a hit from the
  // schedule, and collector-context allocations must not eat the
  // one-shot a fail@N spec aimed at the mutator.
  void check_fault(std::size_t incoming) {
    if (__builtin_expect(!failpoint::gc_exempt() &&
                             failpoint::triggered(failpoint::Site::kChunkAlloc),
                         0)) {
      throw OutOfMemory("chunk_alloc", incoming, live_bytes(), budget(),
                        peak_bytes());
    }
  }

  // A free slot of this class or the nearest other one, and a fresh
  // slot only when no free slot of any class is left. check_budget runs
  // before the pop (pooled reuse still counts as live), so a budget
  // throw leaves the chunk where it was. Taking across classes is what
  // stops the per-class lists from hoarding: batch_pure's steady RSS was
  // 415 MB without it and 288 MB with it (25 s runs, 4-vCPU VM).
  Chunk* take(unsigned cls, std::size_t want) {
    std::lock_guard<std::mutex> g(mu_);
    check_budget(want);
    if (Chunk* c = free_.pop_nearest(cls)) {
      return c;
    }
    return fresh(want);
  }

  // Pool miss (caller holds mu_): a slot with no resident pages, either
  // one trim() emptied or a new one carved from the current region.
  // Only this path and oversized mappings take memory from the OS, so
  // only they consult the chunk_alloc failpoint.
  Chunk* fresh(std::size_t want) {
    check_fault(want);
    char* slot;
    if (!empty_.empty()) {
      slot = empty_.back();
      empty_.pop_back();
      unpoison(slot, kChunkBytes);  // its last tenant's size is gone
    } else {
      if (carve_ == carve_end_) {
        map_region(want);
      }
      slot = carve_;
      carve_ += kChunkBytes;
    }
    return new (slot) Chunk();  // bytes == 0: hand_out sizes it
  }

  void map_region(std::size_t want) {
    // Reserve first, so nothing below can fail once the region exists:
    // empty_ gets a place for every slot trim() could ever empty.
    char* raw = nullptr;
    try {
      // Doubling keeps the reallocations, and the mappings glibc makes
      // for them between regions, logarithmic in the region count.
      const std::size_t n = regions_.size() + 1;
      if (regions_.capacity() < n) {
        regions_.reserve(2 * n);
      }
      if (empty_.capacity() < n * kSlotsPerRegion) {
        empty_.reserve(2 * n * kSlotsPerRegion);
      }
      raw = map_with_slack(kRegionBytes);
    } catch (const std::bad_alloc&) {
    }
    if (raw == nullptr) {
      throw OutOfMemory("chunk_alloc", want, live_bytes(), budget(),
                        peak_bytes());
    }
    regions_.push_back(raw);
#if defined(MADV_NOHUGEPAGE)
    // A transparent huge page would make a starter's first touch fault
    // in 2 MiB of the region. The whole mapping gets the flag, so that
    // adjacent regions still merge into one VMA.
    ::madvise(raw, kRegionBytes + kChunkBytes, MADV_NOHUGEPAGE);
#endif
    carve_ = align_up(raw);
    carve_end_ = carve_ + kRegionBytes;
  }

  // Sizes a popped slot as a `want`-byte chunk: pages past `want` that
  // a larger previous tenant touched are given back. The previous
  // tenant's whole payload is unpoisoned along with the new one, so
  // poison only ever lies in pooled payloads and emptied slots.
  Chunk* hand_out(Chunk* c, std::size_t want) {
    const std::size_t had = c->bytes;
    if (had > want) {
      discard(reinterpret_cast<char*>(c) + want, had - want);
    }
    unpoison(c->data(), (had > want ? had : want) - kChunkHeaderBytes);
    c->bytes = want;
    c->heap.store(nullptr, std::memory_order_relaxed);
    c->next = nullptr;
    c->obj_end = nullptr;
    c->from_space.store(false, std::memory_order_relaxed);
    account_live(want);
    return c;
  }

  Chunk* map_oversized(std::size_t payload_bytes) {
    std::size_t total = kChunkHeaderBytes + payload_bytes;
    total = (total + kChunkBytes - 1) & ~(kChunkBytes - 1);
    check_budget(total);
    check_fault(total);
    char* raw = map_with_slack(total);
    if (raw == nullptr) {
      throw OutOfMemory("chunk_alloc", total, live_bytes(), budget(),
                        peak_bytes());
    }
    char* mem = align_up(raw);
    Chunk* c = new (mem) Chunk();
    c->bytes = total;
    c->map_slack = static_cast<std::size_t>(mem - raw);
    c->oversized = true;
    account_live(total);
    return c;
  }

  // Anonymous mapping of bytes + kChunkBytes, so a kChunkBytes-aligned
  // block of `bytes` (align_up of the start) lies inside it; the
  // misaligned head and the rest of the slack stay mapped but are never
  // touched. Returns the mapping's start, or nullptr when the OS
  // refuses the memory.
  static char* map_with_slack(std::size_t bytes) {
    void* raw = ::mmap(nullptr, bytes + kChunkBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    return raw == MAP_FAILED ? nullptr : static_cast<char*>(raw);
  }
  static void unmap_with_slack(char* raw, std::size_t bytes) {
    ::munmap(raw, bytes + kChunkBytes);
  }
  static char* align_up(char* p) {
    auto a = reinterpret_cast<std::uintptr_t>(p);
    return reinterpret_cast<char*>((a + kChunkBytes - 1) & ~(kChunkBytes - 1));
  }

  static void discard(char* p, std::size_t bytes) {
    ::madvise(p, bytes, MADV_DONTNEED);
  }

  static void poison(char* p, std::size_t bytes) {
#if defined(PARMEM_ASAN)
    __asan_poison_memory_region(p, bytes);
#else
    (void)p;
    (void)bytes;
#endif
  }
  static void unpoison(char* p, std::size_t bytes) {
#if defined(PARMEM_ASAN)
    __asan_unpoison_memory_region(p, bytes);
#else
    (void)p;
    (void)bytes;
#endif
  }

  void account_live(std::size_t bytes) {
    std::size_t now =
        live_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (now > peak && !peak_bytes_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  // One free list per size class, linked through the chunk headers.
  struct FreeLists {
    Chunk* head[kClasses] = {};

    void push(Chunk* c, unsigned cls) {
      c->next = head[cls];
      head[cls] = c;
    }
    Chunk* pop(unsigned cls) {
      Chunk* c = head[cls];
      head[cls] = c->next;
      return c;
    }
    // This class, else the nearest smaller one (its resident pages are
    // reused and the rest fault in on touch), else the nearest larger
    // one (hand_out gives back the pages past the new size).
    Chunk* pop_nearest(unsigned cls) {
      for (unsigned k = cls + 1; k-- > 0;) {
        if (head[k] != nullptr) {
          return pop(k);
        }
      }
      for (unsigned k = cls + 1; k < kClasses; ++k) {
        if (head[k] != nullptr) {
          return pop(k);
        }
      }
      return nullptr;
    }
  };

  // Everything below up to live_bytes_ is guarded by mu_.
  std::mutex mu_;
  FreeLists free_;
  std::vector<char*> empty_;    // slots whose pages trim() returned
  std::vector<char*> regions_;  // map_with_slack(kRegionBytes) starts
  char* carve_ = nullptr;       // next uncarved slot of the last region
  char* carve_end_ = nullptr;
  // The byte counters live on their own line: every acquire/release on
  // every worker hits them, and they must not share a line with the
  // mutex word or the free-list heads.
  alignas(64) std::atomic<std::size_t> live_bytes_{0};
  std::atomic<std::size_t> peak_bytes_{0};
  std::atomic<std::size_t> budget_{0};  // 0 = unlimited
};

// The one collection trigger of every runtime: a heap collects once its
// chunks reach `growth` times the live bytes its last collection left,
// and never below `min_bytes`.
inline std::size_t gc_trigger_bytes(std::size_t min_bytes, double growth,
                                    std::size_t live) {
  const auto scaled =
      static_cast<std::size_t>(static_cast<double>(live) * growth);
  return std::max(min_bytes, scaled);
}

// One node of the heap tree. Leaf heaps are bumped lock-free by their
// owning task; internal heaps only grow via promotion, which
// synchronises with either the heap mutex (coarse path locking) or the
// remote spinlock (fine-grained mode).
class Heap {
 public:
  Heap(Heap* parent, std::uint32_t depth, ChunkPool* pool)
      : parent_(parent), depth_(depth), pool_(pool) {}
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  ~Heap() {
    release_all_chunks();
#if defined(PARMEM_TSAN)
    // Heaps live in fork2 stack frames, so a dead heap's address is
    // promptly reused by another heap at a different depth. glibc's
    // std::mutex destructor is trivial (no pthread_mutex_destroy
    // call), so without this TSan keeps the dead path lock's
    // lock-order edges and conflates the logical mutexes sharing the
    // address across time -- its deadlock detector then reports
    // cycles no live acquisition order can produce. (Live edges are
    // acyclic: PathLockGuard locks shallow-first along ancestor
    // chains and parent_ is construction-only, so the relative order
    // of two live heaps can never invert.)
    __tsan_mutex_destroy(&lock_, 0);
#endif
  }

  Heap* parent() const { return parent_; }
  std::uint32_t depth() const { return depth_; }
  std::mutex& path_lock() { return lock_; }
  SpinLock& remote_lock() { return remote_lock_; }
  ChunkPool* pool() const { return pool_; }

  // True when `anc` lies strictly above this heap on its root path --
  // the descendant-enumeration test used by hierarchy-aware internal
  // collection (a heap's referents can only live in itself, its
  // descendants' frames/fields, or its owner's frames; never in
  // ancestors or cousins).
  bool is_descendant_of(const Heap* anc) const {
    for (const Heap* h = parent_; h != nullptr; h = h->parent_) {
      if (h == anc) {
        return true;
      }
    }
    return false;
  }

  // Bytes promoted INTO this heap since its last full collection --
  // the allocation-triggered internal-collection policy's pressure
  // metric. Bumped under the promotion protocol's lock but read
  // remotely, hence atomic.
  void note_remote_bytes(std::size_t n) {
    remote_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  std::size_t remote_bytes() const {
    return remote_bytes_.load(std::memory_order_relaxed);
  }
  void reset_remote_bytes() {
    remote_bytes_.store(0, std::memory_order_relaxed);
  }

  // Leaf-GC trigger state. The owner collects once gc_due, that is once
  // chunk_bytes() reaches gc_trigger_bytes(min, growth, live_estimate()).
  // A collection of this heap, by any collector, records what it
  // evacuated through note_collected (or, kept in place, what it marked
  // through note_kept); a join then adds the larger child's estimate
  // (join_children), so a merged heap is not re-collected just for
  // holding its children's survivors.
  std::size_t live_estimate() const { return live_estimate_; }
  bool gc_due(std::size_t min_bytes, double growth) const {
    return bytes_ >= gc_trigger_bytes(min_bytes, growth, live_estimate_);
  }

  // A full collection just evacuated `live` bytes into this heap. It
  // also settles all promoted-into growth: survivors were re-copied, the
  // rest died with from-space.
  void note_collected(std::size_t live) {
    survivor_bytes_ = live;
    live_estimate_ = live;
    reset_remote_bytes();
  }

  // A budget-triggered collection measured `live` bytes and kept every
  // object in place (collect_due in core/gc_leaf.hpp). Nothing
  // promoted-into was reclaimed, so remote_bytes stays.
  void note_kept(std::size_t live) {
    survivor_bytes_ = live;
    live_estimate_ = live;
  }

  // Current chunk-growth step (4 KiB doubling to 256 KiB). Exposed so
  // tests can pin that collections never reset the doubling schedule
  // back to the small-leaf start.
  std::size_t chunk_size_hint() const { return next_chunk_bytes_; }

  char* top() const { return top_; }
  Chunk* chunks() const { return head_; }
  Chunk* tail() const { return tail_; }
  std::size_t chunk_bytes() const { return bytes_; }
  std::size_t allocated_bytes() const {
    return allocated_full_ +
           (top_ != nullptr ? static_cast<std::size_t>(top_ - tail_->data())
                            : 0);
  }

  // The inline allocation fast path of every runtime's Ctx::alloc:
  // bump, write the header and zero the fields -- or return null on
  // overflow, so the caller can run its GC policy before acquiring a
  // chunk. Same mutual exclusion rules as bump_alloc.
  Object* try_alloc(std::uint32_t nptr, std::uint32_t nscalar) {
    const std::size_t size = Object::size_bytes(nptr, nscalar);
    char* p = top_;
    if (__builtin_expect(static_cast<std::size_t>(end_ - p) < size, 0)) {
      return nullptr;
    }
    top_ = p + size;
    Object* o = reinterpret_cast<Object*>(p);
    o->init_header(nptr, nscalar);
    o->zero_fields();
    return o;
  }

  // Raw bump allocation. The caller provides mutual exclusion: the
  // owning task for its leaf, or the promotion lock for an internal
  // heap. Header is initialised; fields are NOT zeroed here.
  Object* bump_alloc(std::uint32_t nptr, std::uint32_t nscalar) {
    std::size_t size = Object::size_bytes(nptr, nscalar);
    char* p = top_;
    char* nt = p + size;
    if (__builtin_expect(nt > end_, 0)) {
      return overflow_alloc(nptr, nscalar, size);
    }
    top_ = nt;
    Object* o = reinterpret_cast<Object*>(p);
    o->init_header(nptr, nscalar);
    return o;
  }

  // Header-agnostic bump: reserve `size` bytes (already object-aligned,
  // e.g. from object_bytes()) without writing a header. Same mutual
  // exclusion rules as bump_alloc.
  char* bump_raw(std::size_t size) {
    char* p = top_;
    char* nt = p + size;
    if (__builtin_expect(nt > end_, 0)) {
      return overflow_raw(size);
    }
    top_ = nt;
    return p;
  }

  // Guarantee the next bump of `size` bytes takes the fast path: opens
  // a new chunk now if the current one lacks room. Any OutOfMemory
  // surfaces HERE, with the heap untouched -- which is what lets
  // callers pre-reserve before entering a window that must not throw
  // (a claimed forwarding word mid-copy). Same mutual exclusion rules
  // as bump_alloc.
  void reserve(std::size_t size) {
    if (__builtin_expect(static_cast<std::size_t>(end_ - top_) < size, 0)) {
      open_new_chunk(size);
    }
  }

  // Snapshot the bump pointer into the tail chunk so object walkers
  // can iterate it without consulting `top_`.
  void retire_tail() {
    if (top_ != nullptr) {
      tail_->obj_end = top_;
    }
  }

  // Detach the whole chunk list (leaf GC flips it to from-space).
  Chunk* detach_chunks() {
    retire_tail();
    Chunk* h = head_;
    head_ = tail_ = nullptr;
    top_ = end_ = nullptr;
    bytes_ = 0;
    allocated_full_ = 0;
    return h;
  }

  // fork2's join: fold both child leaves into this heap and carry their
  // estimates. The estimate becomes this heap's own survivors plus the
  // LARGER child's estimate, not the sum. Survivors a child recorded may
  // be dead by the join (the child dropped them), and summing every
  // child's would let stale estimates compound up a fork tree until the
  // merged heap never collects: a tree of leaves that each collect and
  // then drop their data grows with its leaf count. With the larger
  // child, each join adds one path's survivors, so the estimate stays
  // below one root-to-leaf path of collections, and the peak stays
  // near growth x live (test gc_budget_space_bound_flat_in_leaf_count).
  // Own survivors, not own estimate: a heap that forks again and again
  // without collecting does not add up every earlier join's children.
  void join_children(Heap& a, Heap& b) {
    const std::size_t carried = std::max(a.live_estimate_, b.live_estimate_);
    merge_from(a);
    merge_from(b);
    live_estimate_ = survivor_bytes_ + carried;
  }

  // Fold `child` into this heap: every surviving child object keeps its
  // address; only the chunk->heap back-pointers change. Leaves the live
  // estimate alone (see join_children).
  void merge_from(Heap& child) {
    child.retire_tail();
    Chunk* h = child.head_;
    if (h == nullptr) {
      return;
    }
    Chunk* last = h;
    for (Chunk* c = h;; c = c->next) {
      c->heap.store(this, std::memory_order_relaxed);
      c->from_space.store(false, std::memory_order_relaxed);
      last = c;
      if (c->next == nullptr) {
        break;
      }
    }
    // Splice at the head so this heap's tail stays the active bump
    // chunk; merged chunks are all retired (obj_end valid).
    last->next = head_;
    head_ = h;
    if (tail_ == nullptr) {
      tail_ = last;
    }
    bytes_ += child.bytes_;
    allocated_full_ += child.allocated_bytes();
    child.head_ = child.tail_ = nullptr;
    child.top_ = child.end_ = nullptr;
    child.bytes_ = 0;
    child.allocated_full_ = 0;
  }

  // Drop every chunk, and with them the live set the estimate measured.
  void release_all_chunks() {
    Chunk* c = detach_chunks();
    while (c != nullptr) {
      Chunk* n = c->next;
      pool_->release(c);
      c = n;
    }
    survivor_bytes_ = 0;
    live_estimate_ = 0;
  }

  // Adopt an externally built, fully retired chunk list (obj_end valid
  // on every chunk; `tail` terminates it). The current list must have
  // been detached or released first. `allocated` is the object bytes
  // the list carries; the bump pointer stays closed, so the next
  // bump_alloc opens a fresh chunk.
  void adopt_chunks(Chunk* head, Chunk* tail, std::size_t allocated) {
    assert(head_ == nullptr && "detach or release existing chunks first");
    std::size_t bytes = 0;
    for (Chunk* c = head; c != nullptr; c = c->next) {
      c->heap.store(this, std::memory_order_relaxed);
      c->from_space.store(false, std::memory_order_relaxed);
      bytes += c->bytes;
    }
    head_ = head;
    tail_ = tail;
    top_ = end_ = nullptr;
    bytes_ = bytes;
    allocated_full_ = allocated;
  }

 private:
  Object* overflow_alloc(std::uint32_t nptr, std::uint32_t nscalar,
                         std::size_t size) {
    Object* o = reinterpret_cast<Object*>(overflow_raw(size));
    o->init_header(nptr, nscalar);
    return o;
  }

  // Open a fresh chunk able to hold `size` payload bytes and make it
  // the bump target. If the pool throws (budget, failpoint, OS), the
  // heap is left fully consistent -- tail retired but nothing linked
  // or double-counted -- so the owner can collect and retry.
  void open_new_chunk(std::size_t size) {
    retire_tail();
    Chunk* c = pool_->acquire(size, next_chunk_bytes_);
    if (top_ != nullptr) {
      allocated_full_ += static_cast<std::size_t>(top_ - tail_->data());
    }
    if (!c->oversized) {
      next_chunk_bytes_ =
          c->bytes < kChunkBytes ? c->bytes << 1 : kChunkBytes;
    }
    c->heap.store(this, std::memory_order_relaxed);
    c->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = c;
    } else {
      head_ = c;
    }
    tail_ = c;
    bytes_ += c->bytes;
    top_ = c->data();
    // An oversized chunk is closed at exactly `size`: objects after the
    // big one would sit past the first kChunkBytes-aligned block, where
    // chunk_of()'s address mask no longer finds this header.
    end_ = c->oversized ? c->data() + size : c->data_limit();
  }

  char* overflow_raw(std::size_t size) {
    open_new_chunk(size);
    char* p = top_;
    top_ += size;
    return p;
  }

  // Cold identity: fixed after construction, read-only thereafter.
  Heap* parent_;
  std::uint32_t depth_;
  ChunkPool* pool_;

  // Owner-hot bump group, isolated on its own cache line: everything
  // the inline alloc fast path (try_alloc/bump_alloc) and the chunk
  // bookkeeping behind it touch. Must not share a line with the
  // remote-writer group below -- a promoting worker bumping
  // remote_bytes_ would otherwise invalidate the owner's bump pointer
  // line on every promotion.
  alignas(64) char* top_ = nullptr;
  char* end_ = nullptr;
  Chunk* tail_ = nullptr;
  Chunk* head_ = nullptr;
  std::size_t next_chunk_bytes_ = kMinChunkBytes;  // doubles to kChunkBytes
  std::size_t bytes_ = 0;           // chunk footprint owned by this heap
  std::size_t allocated_full_ = 0;  // object bytes in retired chunks
  // Written by collections of this heap (the owner's own, or a stopped
  // world's while the owner is parked or blocked in fork2) and by the
  // owner's joins; read by the owner's allocation slow path.
  std::size_t survivor_bytes_ = 0;  // live after the last collection
  std::size_t live_estimate_ = 0;   // survivors + carried from joins

  // Remote group: written by OTHER workers promoting into this heap
  // (remote_bytes_ under the promotion protocol, the locks by the
  // coarse/fine promotion paths).
  alignas(64) std::atomic<std::size_t> remote_bytes_{0};  // promoted-into
  SpinLock remote_lock_;
  std::mutex lock_;
};

// Walk every object of `heap` in allocation order, invoking
// fn(Object*). Retires the tail first so the active bump chunk is
// walkable; the caller must be the owning task, or the owner must be
// quiesced (a stopped world or a merged/joined subtree).
template <class Fn>
void heap_for_each_object(Heap* heap, Fn&& fn) {
  heap->retire_tail();
  for (Chunk* c = heap->chunks(); c != nullptr; c = c->next) {
    char* p = c->data();
    char* limit = c->obj_end;
    while (p < limit) {
      Object* o = reinterpret_cast<Object*>(p);
      fn(o);
      p += o->size();
    }
  }
}

}  // namespace parmem
