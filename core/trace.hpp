// GC pause / runtime-event trace layer: per-worker event rings
// recording every GC pause, safepoint-gate stall, emergency cascade,
// and promotion burst with nanosecond timestamps, plus log-bucketed
// per-kind histograms (core/histogram.hpp) that are always on.
//
// Two tiers, different costs:
//
//   * HISTOGRAMS + last-event summary: recorded on every call to a
//     record_* function. The call sites are collection pauses, gate
//     stalls, and (ring-gated) promotions -- microsecond-scale slow
//     paths where two clock reads and a bucket increment vanish. This
//     is what lets pause-percentile columns ride along in the stats
//     JSON export with no env var set.
//   * EVENT RINGS: pushed only while tracing is enabled
//     (PARMEM_TRACE=out.json or trace::enable()). Disabled cost is one
//     relaxed load, the core/failpoint.hpp pattern. Rings are
//     per-worker, fixed-capacity, and overwrite their OLDEST entry on
//     overflow (the tail of a long run is what a hang/tail-latency
//     investigation wants), counting what they dropped.
//
// Output is Chrome trace-event JSON ("X" complete events), loadable in
// Perfetto / chrome://tracing: one row (tid) per worker slot, event
// name = kind, args carry bytes. write_json() is called automatically
// at process exit when PARMEM_TRACE is set.
//
// GC-pause accounting invariant (pinned by a unit test): every
// Stats::gc_count increment pairs with exactly ONE pause event among
// {gc_leaf, gc_join, gc_internal, gc_stw, gc_global} -- the leaf
// collector records under the ambient phase's kind, and the paths that
// bill gc_count directly (team evacuations) record their own -- so
// summing those five histograms' counts reproduces gc_count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/histogram.hpp"
#include "core/phase.hpp"
#include "core/sig_io.hpp"

namespace parmem::trace {

enum class Ev : std::uint8_t {
  kGcLeaf = 0,   // a task collecting its own heap, no stop (and
                 // hier's emergency sweep, which has no kind of its own)
  kGcJoin,       // join-time stopped-world collection pause
  kGcInternal,   // internal-heap stopped-world collection pause
  kGcStw,        // StwRuntime's stopped-world collection pause
  kGcGlobal,     // local-heap runtime's global-heap collection pause
  kEmergency,    // whole emergency cascade (its collections also
                 // record individually under the kinds above)
  kGateStall,    // time a mutator sat parked at a safepoint gate
  kPromotion,    // one promotion (closure copy up the hierarchy)
  kCount,
};

inline const char* kind_name(Ev e) {
  switch (e) {
    case Ev::kGcLeaf:    return "gc_leaf";
    case Ev::kGcJoin:    return "gc_join";
    case Ev::kGcInternal: return "gc_internal";
    case Ev::kGcStw:     return "gc_stw";
    case Ev::kGcGlobal:  return "gc_global";
    case Ev::kEmergency: return "emergency_cascade";
    case Ev::kGateStall: return "gate_stall";
    case Ev::kPromotion: return "promotion";
    default:             return "?";
  }
}

constexpr unsigned kKinds = static_cast<unsigned>(Ev::kCount);
constexpr unsigned kPauseKinds = 5;  // the first five Ev values

// The pause kind a collection records under, derived from the ambient
// phase: a leaf collection driven inside a join-GC (or internal-GC)
// scope IS that pause's copy step, so it records under that kind.
inline Ev pause_kind_from_phase(phase::Phase p) {
  switch (p) {
    case phase::Phase::kJoinGc:     return Ev::kGcJoin;
    case phase::Phase::kInternalGc: return Ev::kGcInternal;
    case phase::Phase::kGlobalGc:   return Ev::kGcGlobal;
    case phase::Phase::kStwGc:      return Ev::kGcStw;
    default:                        return Ev::kGcLeaf;
  }
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Event {
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;  // bytes copied / promoted; 0 where N/A
  Ev kind = Ev::kGcLeaf;
};

// Fixed-capacity ring that keeps the NEWEST `cap` events: push
// overwrites the oldest entry and the drop counter is total - cap.
// Single-writer (the owning worker); readers take the owning slot's
// lock (below) or run after the writer quiesced. Standalone so the
// overflow policy is unit-testable without a runtime.
class TraceRing {
 public:
  explicit TraceRing(std::size_t cap) : buf_(cap) {}

  void push(const Event& e) {
    buf_[static_cast<std::size_t>(n_ % buf_.size())] = e;
    ++n_;
  }

  std::uint64_t total() const { return n_; }
  std::uint64_t dropped() const {
    return n_ > buf_.size() ? n_ - buf_.size() : 0;
  }
  std::size_t size() const {
    return n_ < buf_.size() ? static_cast<std::size_t>(n_) : buf_.size();
  }
  std::size_t capacity() const { return buf_.size(); }

  template <class Fn>
  void for_each_oldest_first(Fn&& fn) const {
    const std::uint64_t lo = n_ - size();
    for (std::uint64_t i = lo; i < n_; ++i) {
      fn(buf_[static_cast<std::size_t>(i % buf_.size())]);
    }
  }

  void clear() { n_ = 0; }

 private:
  std::vector<Event> buf_;
  std::uint64_t n_ = 0;
};

namespace detail {

// Tiny test-and-set lock so this header does not pull in core/heap.hpp
// (which owns the allocator SpinLock). Taken only on record paths that
// are already microsecond-scale, and by quiescent-time readers.
class TinyLock {
 public:
  void lock() {
    while (f_.exchange(true, std::memory_order_acquire)) {
    }
  }
  void unlock() { f_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> f_{false};
};

struct LockGuard {
  explicit LockGuard(TinyLock& l) : l_(l) { l_.lock(); }
  ~LockGuard() { l_.unlock(); }
  TinyLock& l_;
};

constexpr std::size_t kRingCap = 4096;

// One per worker slot (same slot space as core/phase.hpp), allocated
// lazily on the slot's first recorded event. The last-event summary is
// lock-free atomics so the watchdog's signal handler can read it.
struct Slot {
  TinyLock mu;
  TraceRing ring{kRingCap};
  Histogram hist[kKinds];
  std::atomic<std::uint8_t> last_kind{0xff};  // 0xff = none yet
  std::atomic<std::uint64_t> last_start_ns{0};
  std::atomic<std::uint64_t> last_dur_ns{0};
};

inline std::atomic<Slot*>* slot_table() {
  static std::atomic<Slot*> table[phase::kSlots] = {};
  return table;
}

inline Slot* slot_at(unsigned i) {
  return slot_table()[i].load(std::memory_order_acquire);
}

inline Slot& my_slot() {
  std::atomic<Slot*>& cell = slot_table()[phase::my_slot_index()];
  Slot* s = cell.load(std::memory_order_acquire);
  if (__builtin_expect(s == nullptr, 0)) {
    Slot* fresh = new Slot;
    if (cell.compare_exchange_strong(s, fresh, std::memory_order_acq_rel)) {
      return *fresh;
    }
    delete fresh;  // lost the race; s is the winner
  }
  return *s;
}

inline std::atomic<bool>& ring_flag() {
  static std::atomic<bool> f{false};
  return f;
}

inline std::string& out_path() {
  static std::string p;
  return p;
}

}  // namespace detail

// Disabled-path check for the OPTIONAL tiers (ring pushes, promotion
// timing): one relaxed load, per the failpoint pattern.
inline bool ring_enabled() {
  return __builtin_expect(
      detail::ring_flag().load(std::memory_order_relaxed), 0);
}

inline void enable() {
  detail::ring_flag().store(true, std::memory_order_relaxed);
}
inline void disable() {
  detail::ring_flag().store(false, std::memory_order_relaxed);
}

inline void record(Ev kind, std::uint64_t start_ns, std::uint64_t dur_ns,
                   std::uint64_t arg) {
  detail::Slot& s = detail::my_slot();
  s.last_kind.store(static_cast<std::uint8_t>(kind),
                    std::memory_order_relaxed);
  s.last_start_ns.store(start_ns, std::memory_order_relaxed);
  s.last_dur_ns.store(dur_ns, std::memory_order_relaxed);
  detail::LockGuard g(s.mu);
  s.hist[static_cast<unsigned>(kind)].record(dur_ns);
  if (ring_enabled()) {
    s.ring.push(Event{start_ns, dur_ns, arg, kind});
  }
}

// One GC pause. Every Stats::gc_count increment must route through
// exactly one of these (see the header comment's invariant).
inline void record_gc_pause(Ev kind, std::uint64_t start_ns,
                            std::uint64_t dur_ns, std::uint64_t bytes) {
  record(kind, start_ns, dur_ns, bytes);
}

inline void record_gate_stall(std::uint64_t start_ns, std::uint64_t dur_ns) {
  record(Ev::kGateStall, start_ns, dur_ns, 0);
}

inline void record_emergency(std::uint64_t start_ns, std::uint64_t dur_ns,
                             std::uint64_t live_before) {
  record(Ev::kEmergency, start_ns, dur_ns, live_before);
}

// Promotions are ring-gated at the CALL SITE (the caller skips even
// the clock reads when tracing is off -- promotions can be hot under
// the fine-grained benches); this is just the sink.
inline void record_promotion(std::uint64_t start_ns, std::uint64_t dur_ns,
                             std::uint64_t bytes) {
  record(Ev::kPromotion, start_ns, dur_ns, bytes);
}

// ---- aggregation ----------------------------------------------------------

struct Snapshot {
  Histogram by_kind[kKinds];
  std::uint64_t ring_events = 0;   // events currently held in rings
  std::uint64_t ring_dropped = 0;  // oldest events overwritten

  std::uint64_t pause_count() const {
    std::uint64_t n = 0;
    for (unsigned k = 0; k < kPauseKinds; ++k) {
      n += by_kind[k].count();
    }
    return n;
  }
};

inline Snapshot snapshot() {
  Snapshot out;
  for (unsigned i = 0; i < phase::kSlots; ++i) {
    detail::Slot* s = detail::slot_at(i);
    if (s == nullptr) {
      continue;
    }
    detail::LockGuard g(s->mu);
    for (unsigned k = 0; k < kKinds; ++k) {
      out.by_kind[k].merge(s->hist[k]);
    }
    out.ring_events += s->ring.size();
    out.ring_dropped += s->ring.dropped();
  }
  return out;
}

// Test isolation: zero every slot's histograms and ring. Callers must
// quiesce their runtimes first (slots are per-thread, but a thread
// mid-record would be merged half-reset).
inline void reset() {
  for (unsigned i = 0; i < phase::kSlots; ++i) {
    detail::Slot* s = detail::slot_at(i);
    if (s == nullptr) {
      continue;
    }
    detail::LockGuard g(s->mu);
    for (unsigned k = 0; k < kKinds; ++k) {
      s->hist[k].reset();
    }
    s->ring.clear();
    s->last_kind.store(0xff, std::memory_order_relaxed);
  }
}

// Watchdog dump: async-signal-safe (atomics + write(2) only; does NOT
// take slot locks -- racy reads are fine when diagnosing a hang).
inline void dump_last_events(int fd) {
  parmem::detail::sig_write(fd, "last trace events:");
  bool any = false;
  for (unsigned i = 0; i < phase::kSlots; ++i) {
    detail::Slot* s = detail::slot_at(i);
    if (s == nullptr) {
      continue;
    }
    std::uint8_t k = s->last_kind.load(std::memory_order_relaxed);
    if (k == 0xff) {
      continue;
    }
    any = true;
    parmem::detail::sig_write(fd, " [");
    parmem::detail::sig_write_i64(fd, i);
    parmem::detail::sig_write(fd, "]=");
    parmem::detail::sig_write(fd, kind_name(static_cast<Ev>(k)));
    parmem::detail::sig_write(fd, "+");
    parmem::detail::sig_write_i64(
        fd, static_cast<long long>(
                s->last_dur_ns.load(std::memory_order_relaxed)));
    parmem::detail::sig_write(fd, "ns");
  }
  if (!any) {
    parmem::detail::sig_write(fd, " (none recorded)");
  }
  parmem::detail::sig_write(fd, "\n");
}

// ---- Chrome trace-event JSON output ---------------------------------------

// Writes every ring's retained events as Chrome trace-event JSON
// ("X" complete events, ts/dur in microseconds), one tid per worker
// slot. Loadable in Perfetto / chrome://tracing. Returns false if the
// file could not be opened.
inline bool write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  std::uint64_t dropped = 0;
  for (unsigned i = 0; i < phase::kSlots; ++i) {
    detail::Slot* s = detail::slot_at(i);
    if (s == nullptr) {
      continue;
    }
    detail::LockGuard g(s->mu);
    dropped += s->ring.dropped();
    s->ring.for_each_oldest_first([&](const Event& e) {
      std::fprintf(
          f,
          "%s\n{\"name\":\"%s\",\"cat\":\"parmem\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
          "\"args\":{\"bytes\":%llu}}",
          first ? "" : ",", kind_name(e.kind),
          static_cast<double>(e.start_ns) / 1e3,
          static_cast<double>(e.dur_ns) / 1e3, i,
          static_cast<unsigned long long>(e.arg));
      first = false;
    });
  }
  std::fprintf(f,
               "\n],\"otherData\":{\"dropped_events\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  std::fclose(f);
  return true;
}

// PARMEM_TRACE=out.json: enable ring recording now, write the Chrome
// trace at process exit. Idempotent; called from every runtime's
// constructor (like env::install_failpoints_env).
inline void init_from_env() {
  static const bool once = [] {
    const char* v = std::getenv("PARMEM_TRACE");
    if (v == nullptr || v[0] == '\0') {
      return false;
    }
    detail::out_path() = v;
    enable();
    std::atexit([] {
      if (!write_json(detail::out_path().c_str())) {
        std::fprintf(stderr, "parmem: cannot write PARMEM_TRACE file %s\n",
                     detail::out_path().c_str());
      }
    });
    return true;
  }();
  (void)once;
}

}  // namespace parmem::trace
