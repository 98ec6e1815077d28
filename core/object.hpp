// Heap object layout, engineered so the paper's cheap rows really are
// cheap:
//
//   [ fwd : 8B ][ meta : 8B ][ scalars... ][ pointers... ]
//
// Scalars come FIRST so an immutable i64 read is a single load at a
// statically known offset -- no meta decode, no barrier. Pointer-field
// access needs nscalar from meta, but every pointer op already pays a
// barrier so the extra load is noise.
//
// `fwd` doubles as (a) the promotion forwarding pointer ("the master
// copy now lives up there"), (b) the evacuator's forwarding pointer
// during a collection, and (c) the claim word for fine-grained
// promotion and a collecting team (value kBusy while a claimer is
// copying).
//
// Memory ordering of the forwarding word. The word carries
// synchronisation in one direction only: from the thread that installs
// a non-null value to a thread that reads that value. Every installer
// writes the copy first and then publishes it with a release store:
// promotion's `set_fwd` (coarse and fine-grained), the fine-grained
// claim `claim_fwd` (an acq_rel CAS), and the evacuator's claim +
// `set_fwd` (core/gc_parallel.hpp, every collection's copy loop).
//
// A null word synchronises with nothing (only `init_header`'s relaxed
// store ever writes null), so `chase` reads it relaxed. Reading null
// means "not moved as far as this thread can tell", and the fields of
// an unmoved object reach the reader through the program's own edges
// -- fork, join, the gate of a stopped world, or `ptr()`'s acquire
// load pairing with `set_ptr`'s release -- never through this word.
// Racing a mutation with a promotion of the same object is a program
// race (core/promote.hpp). Only a non-null word is reloaded with
// acquire. Callers audited for reliance on acquire-on-null:
//   - hier and localheap mutable accessors (read_i64_mut, write_i64,
//     read_ptr, write_ptr, publish) read fields of the returned
//     object, which the edges above order;
//   - promotion (core/promote.hpp) copies a chased object only under
//     the path locks (coarse) or after its own acq_rel claim_fwd
//     (fine-grained), and reads only its immutable header before that;
//   - the leaf mark pass (core/gc_leaf.hpp) reads only objects of its
//     own heap, whose words only its own task writes, and moves none;
//   - the evacuator's forward (core/gc_parallel.hpp), the copy loop of
//     every collection, copies only after winning claim_fwd, and a
//     loser's chase sees the winner's non-null word and takes the
//     acquire reload. A team of one copies unclaimed: a leaf heap's
//     words only its owner writes, and a stopped world's are ordered
//     by the safepoint gate.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace parmem {

class Object {
 public:
  static constexpr std::size_t kHeaderBytes = 16;
  static constexpr std::size_t kAlign = 16;

  // Fine-grained promotion claim sentinel; never a valid object address.
  static Object* busy_sentinel() { return reinterpret_cast<Object*>(1); }

  static constexpr std::size_t size_bytes(std::uint32_t nptr,
                                          std::uint32_t nscalar) {
    std::size_t raw = kHeaderBytes + 8u * (std::size_t{nptr} + nscalar);
    return (raw + (kAlign - 1)) & ~(kAlign - 1);
  }

  void init_header(std::uint32_t nptr, std::uint32_t nscalar) {
    fwd_.store(nullptr, std::memory_order_relaxed);
    meta_ = (std::uint64_t{nscalar} << 32) | nptr;
  }

  std::uint32_t nptr() const { return static_cast<std::uint32_t>(meta_); }
  std::uint32_t nscalar() const {
    return static_cast<std::uint32_t>(meta_ >> 32);
  }
  std::uint64_t meta_word() const { return meta_; }
  std::size_t size() const { return size_bytes(nptr(), nscalar()); }

  std::int64_t* scalars() {
    return reinterpret_cast<std::int64_t*>(reinterpret_cast<char*>(this) +
                                           kHeaderBytes);
  }
  const std::int64_t* scalars() const {
    return const_cast<Object*>(this)->scalars();
  }
  Object** ptrs() { return reinterpret_cast<Object**>(scalars() + nscalar()); }

  std::int64_t scalar(std::uint32_t i) const { return scalars()[i]; }
  void set_scalar(std::uint32_t i, std::int64_t v) { scalars()[i] = v; }

  Object* ptr(std::uint32_t i) {
    return std::atomic_ref<Object*>(ptrs()[i]).load(std::memory_order_acquire);
  }
  void set_ptr(std::uint32_t i, Object* v) {
    std::atomic_ref<Object*>(ptrs()[i]).store(v, std::memory_order_release);
  }
  void set_ptr_relaxed(std::uint32_t i, Object* v) { ptrs()[i] = v; }

  // The forwarding word aliased as a plain pointer slot, so collectors
  // can treat stale promotion-forwarding edges as roots (a stale copy
  // whose master lives in a heap under collection keeps that master
  // alive, and the slot must be rewritten when the master moves).
  // std::atomic<Object*> has the representation of Object* on every
  // supported ABI (asserted below); the slot is only handed out while
  // the mutators that could touch this word are stopped.
  Object** fwd_slot() { return reinterpret_cast<Object**>(&fwd_); }

  Object* fwd_acquire() const { return fwd_.load(std::memory_order_acquire); }
  Object* fwd_relaxed() const { return fwd_.load(std::memory_order_relaxed); }
  void set_fwd(Object* f) { fwd_.store(f, std::memory_order_release); }
  bool claim_fwd() {  // fine-grained promotion: null -> kBusy
    Object* expect = nullptr;
    return fwd_.compare_exchange_strong(expect, busy_sentinel(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  }

  // Follow the forwarding chain to the master copy. The fast path is
  // one relaxed load of the forwarding word and one predicted branch:
  // an unpromoted object returns at once. A non-null word (a master,
  // or the kBusy claim of an in-flight fine-grained promotion) is
  // reloaded with acquire, so the chain walk reads every copy only
  // after the store that published it; in-flight claims are spun past.
  // See "Memory ordering of the forwarding word" at the top of this
  // file for why null needs no acquire. Force-inlined: this IS the
  // mutable-barrier fast path, and once the runtime translation unit
  // grew past the inliner's unit-growth budget gcc started outlining
  // it, tripling the fig08 barrier rows.
  [[gnu::always_inline]] static inline Object* chase(Object* o) {
    if (__builtin_expect(
            o->fwd_.load(std::memory_order_relaxed) == nullptr, 1)) {
      return o;
    }
    // The reload is a second load rather than a standalone acquire
    // fence: TSan does not model fences, and the load pairs with the
    // release store that installed the value it reads.
    Object* f = o->fwd_.load(std::memory_order_acquire);
    while (f != nullptr) {
      if (f == busy_sentinel()) {
        // A concurrent fine-grained promotion is mid-copy; the claimer
        // installs the real pointer shortly.
        f = o->fwd_.load(std::memory_order_acquire);
        continue;
      }
      o = f;
      f = o->fwd_.load(std::memory_order_acquire);
    }
    return o;
  }

  void zero_fields() {
    std::uint64_t* p = reinterpret_cast<std::uint64_t*>(scalars());
    std::size_t n = std::size_t{nptr()} + nscalar();
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = 0;
    }
  }

 private:
  std::atomic<Object*> fwd_;
  std::uint64_t meta_;
};

static_assert(sizeof(Object) == Object::kHeaderBytes,
              "object header must be exactly two words");
static_assert(sizeof(std::atomic<Object*>) == sizeof(Object*) &&
                  alignof(std::atomic<Object*>) == alignof(Object*),
              "fwd_slot() aliases the atomic forwarding word as Object*");

}  // namespace parmem
