// Spans recorded by the benchmark's own code around its calls into the
// runtime's public surface (runtimes/runtime_api.hpp): rt.run, each op,
// and each RT::fork2 call with its two branches. Nothing here reaches
// inside core/ or runtimes/.
//
// Traced<RT> is a thin adapter: its fork2 forwards to RT::fork2 with
// each branch wrapped in a span, so the bench_common kernels, which
// only name RT::Ctx and RT::fork2, run traced without a copy.
//
// Spans go to one preallocated arena. It is sized and touched before
// the measured window opens, so it adds a constant to the process RSS
// (reported, and subtracted where RSS is compared with live heap
// bytes) and recording never allocates. A full arena drops further
// spans and counts them. Recording is off unless switched on, and
// then costs one relaxed load per span site.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <utility>
#include <vector>

#include "core/roots.hpp"
#include "core/trace.hpp"
#include "perfbench/src/metrics.hpp"

namespace perfbench {

class SpanArena {
 public:
  static SpanArena& get() {
    static SpanArena a;
    return a;
  }

  // Size the arena (touching every page now, outside any window) and
  // forget earlier spans. Call only while recording is off.
  void reset(std::size_t capacity) {
    spans_.assign(capacity, Span{});
    next_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

  void set_recording(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool recording() const { return on_.load(std::memory_order_relaxed); }

  // Claims a slot and stamps its start; kNoParent when off or full.
  std::uint32_t begin(SpanKind kind, std::uint32_t parent) {
    const std::uint32_t id = next_.fetch_add(1, std::memory_order_relaxed);
    if (id >= spans_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return kNoParent;
    }
    Span& s = spans_[id];
    s.parent = parent;
    s.kind = kind;
    s.thread = thread_index();
    s.start_ns = parmem::trace::now_ns();
    return id;
  }

  void end(std::uint32_t id) { spans_[id].end_ns = parmem::trace::now_ns(); }

  // The recorded spans; valid once every recording thread has quiesced.
  std::vector<Span> recorded() const {
    const std::size_t n =
        std::min<std::size_t>(next_.load(std::memory_order_relaxed),
                              spans_.size());
    return std::vector<Span>(spans_.begin(),
                             spans_.begin() + static_cast<long>(n));
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t bytes() const { return spans_.size() * sizeof(Span); }

  // Binary dump: the 8 bytes "PBSPANS1", a little-endian u64 span
  // count, then the Span records as laid out in memory (start_ns,
  // end_ns, parent, kind, thread; 24 bytes each).
  bool write(const char* path) const {
    std::FILE* f = std::fopen(path, "wb");
    if (f == nullptr) {
      return false;
    }
    const std::vector<Span> spans = recorded();
    const std::uint64_t n = spans.size();
    bool ok = std::fwrite("PBSPANS1", 1, 8, f) == 8 &&
              std::fwrite(&n, sizeof n, 1, f) == 1 &&
              std::fwrite(spans.data(), sizeof(Span), spans.size(), f) ==
                  spans.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
  }

 private:
  static std::uint8_t thread_index() {
    static std::atomic<unsigned> next{0};
    static thread_local const std::uint8_t idx = static_cast<std::uint8_t>(
        next.fetch_add(1, std::memory_order_relaxed));
    return idx;
  }

  std::vector<Span> spans_;
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> on_{false};
};

// RAII span on the calling thread. The parent defaults to the thread's
// innermost open span; a branch names its fork2 span explicitly, since
// a stolen branch runs on another thread.
class SpanScope {
 public:
  explicit SpanScope(SpanKind kind, std::uint32_t parent = current_) {
    SpanArena& a = SpanArena::get();
    if (a.recording()) {
      id_ = a.begin(kind, parent);
      if (id_ != kNoParent) {
        prev_ = current_;
        current_ = id_;
      }
    }
  }
  ~SpanScope() {
    if (id_ != kNoParent) {
      SpanArena::get().end(id_);
      current_ = prev_;
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint32_t id() const { return id_; }
  static std::uint32_t current() { return current_; }

 private:
  static inline thread_local std::uint32_t current_ = kNoParent;
  std::uint32_t id_ = kNoParent;
  std::uint32_t prev_ = kNoParent;
};

template <class RT>
class Traced {
 public:
  using Ctx = typename RT::Ctx;
  static constexpr const char* kName = RT::kName;

  explicit Traced(RT& rt) : rt_(rt) {}

  template <class F>
  auto run(F&& f) {
    SpanScope s(SpanKind::kRun);
    return rt_.run(std::forward<F>(f));
  }

  template <class F, class G>
  static auto fork2(Ctx& c, std::initializer_list<parmem::Local> roots, F&& f,
                    G&& g) {
    SpanScope fork(SpanKind::kFork2);
    const std::uint32_t id = fork.id();
    return RT::fork2(
        c, roots,
        [&f, id](Ctx& cc) {
          SpanScope b(SpanKind::kBranch, id);
          return f(cc);
        },
        [&g, id](Ctx& cc) {
          SpanScope b(SpanKind::kBranch, id);
          return g(cc);
        });
  }

 private:
  RT& rt_;
};

}  // namespace perfbench
