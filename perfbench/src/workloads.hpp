// The benchmark's workloads, measured over one window each.
//
// All load comes from one process: a closed loop with one client per
// lane and one lane per runtime worker, so each lane issues its next op
// only after the previous one returned. An op is one request for the
// serve workloads and one run of the `map` kernel for batch_pure.
//
// Every op's latency is kept exactly (a vector per lane, merged at the
// end), not in log buckets. Counter sources are read at the window's
// open and close and differenced: rt.stats(), live_bytes() and
// peak_bytes(), HierRuntime::scheduler_idle_wakeups(), the cumulative
// pause and gate-stall histograms of trace::snapshot(), and getrusage.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "bench_common/serve_harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "perfbench/src/metrics.hpp"
#include "perfbench/src/traced.hpp"
#include "runtimes/runtime_api.hpp"

namespace perfbench {

using parmem::Local;
using parmem::Object;
using parmem::RootFrame;
using parmem::bench::serve::ServeConfig;

inline std::uint64_t now_ns() { return parmem::trace::now_ns(); }

// ---- counter probes ---------------------------------------------------------

struct Probe {
  double cpu_s = 0.0;  // process user + system time
  long invol_csw = 0;  // involuntary context switches, whole process
  parmem::Stats stats;
  std::uint64_t idle_wakeups = 0;
  std::unique_ptr<parmem::trace::Snapshot> trace;
};

template <class RT>
Probe probe(const RT& rt) {
  Probe p;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  p.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  p.invol_csw = ru.ru_nivcsw;
  p.stats = rt.stats();
  if constexpr (requires { rt.scheduler_idle_wakeups(); }) {
    p.idle_wakeups = rt.scheduler_idle_wakeups();
  }
  p.trace =
      std::make_unique<parmem::trace::Snapshot>(parmem::trace::snapshot());
  return p;
}

// Everything one measured window produced.
struct Window {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> lat_ns;  // latency of every successful op
  double seconds = 0.0;               // open to the last op's completion
  std::uint64_t open_ns = 0;
  std::uint64_t close_ns = 0;
  std::size_t peak_rss = 0;
  std::size_t steady_rss = 0;
  std::size_t steady_live = 0;
  std::size_t peak_bytes = 0;  // runtime's lifetime high-water at close
  Probe open;
  Probe close;
};

// Shared by every workload: sample RSS and live bytes across the window.
using MemorySampler = parmem::bench::serve::MemorySampler;
inline constexpr std::chrono::milliseconds kSampleTick{5};

inline void finish_window(Window& w, MemorySampler& sampler) {
  sampler.stop_and_join();
  w.peak_rss = sampler.peak_rss();
  w.steady_rss = sampler.steady_rss();
  w.steady_live = sampler.steady_live();
}

// ---- serve lanes ------------------------------------------------------------

// serve_shared's table: kSlotsPerLane pointer slots per lane, written
// only by that lane, so no two lanes race on one word. Each link
// overwrites the entry linked kSlotsPerLane ops earlier, so the live
// shared state stays a fixed 2 x 64 entries (about 10 KB) through the
// window while every later link leaves one entry of garbage in the
// root heap: the garbage internal collection is there to reclaim.
inline constexpr std::uint32_t kSlotsPerLane = 64;
// [id, 7 derived words]: one pointer-free 80-byte object per request,
// so each op promotes exactly one object, and seven words per entry
// check that a copy moved by a collection kept its contents.
inline constexpr std::uint32_t kEntryWords = 8;
// Each op reads back the entries this many links ago: from the one
// linked just before (promoted, likely not yet collected) to the oldest
// still linked (moved by the most internal collections since), with two
// ages between.
inline constexpr std::uint32_t kReadBack[] = {1, 3, 17, 63};

inline std::int64_t entry_word(std::uint64_t seed, std::uint64_t id,
                               std::uint32_t k) {
  if (k == 0) {
    return static_cast<std::int64_t>(id);
  }
  return static_cast<std::int64_t>(
      parmem::bench::wl::mix64(seed ^ (id * 0x9e3779b97f4a7c15ull + k)) >> 1);
}

struct alignas(64) Lane {
  std::vector<std::uint64_t> lat_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checksum = 0;  // wrapping sum of op results
  std::uint64_t end_ns = 0;
  std::uint64_t links = 0;  // serve_shared entries linked so far
  std::int64_t slot_id[kSlotsPerLane];  // id linked into each slot
};

// One wave of ops over all lanes: ids [next_id, end_id) for a
// fixed-count wave, or until `seconds` after the start barrier.
struct Wave {
  std::atomic<std::uint64_t> next_id{0};
  std::uint64_t end_id = std::numeric_limits<std::uint64_t>::max();
  double seconds = 0.0;
  unsigned lanes = 1;
  std::uint32_t run_span = kNoParent;
  std::atomic<unsigned> staged{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> open_ns{0};
  std::atomic<std::uint64_t> deadline_ns{0};
};

// serve_shared's extra step: link a fresh entry into this lane's next
// table slot (an entangling write from a nested task into state the
// root task allocated), then check earlier entries read back intact.
template <class R>
bool link_and_check(typename R::Ctx& c, const Local& table, Lane& lane,
                    unsigned lane_idx, std::uint64_t seed, std::uint64_t id) {
  using Ctx = typename R::Ctx;
  Object* e = c.alloc(0, kEntryWords);
  for (std::uint32_t k = 0; k < kEntryWords; ++k) {
    Ctx::init_i64(e, k, entry_word(seed, id, k));
  }
  const std::uint32_t k =
      static_cast<std::uint32_t>(lane.links++ % kSlotsPerLane);
  const std::uint32_t base = lane_idx * kSlotsPerLane;
  c.write_ptr(table.get(), base + k, e);
  lane.slot_id[k] = static_cast<std::int64_t>(id);

  bool ok = true;
  for (std::uint32_t back : kReadBack) {
    const std::uint32_t j = (k + kSlotsPerLane - back) % kSlotsPerLane;
    const std::int64_t want = lane.slot_id[j];
    if (want < 0) {
      continue;  // not linked yet
    }
    Object* o = Ctx::read_ptr(table.get(), base + j);
    if (o == nullptr) {
      ok = false;
      continue;
    }
    for (std::uint32_t w = 0; w < kEntryWords; ++w) {
      ok = ok && Ctx::read_i64_imm(o, w) ==
                     entry_word(seed, static_cast<std::uint64_t>(want), w);
    }
  }
  return ok;
}

template <class R>
void lane_loop(typename R::Ctx& c, Wave& w, Lane& lane, unsigned lane_idx,
               const ServeConfig& cfg, const Local* table,
               const std::function<void()>& on_open) {
  // Start barrier. Lanes allocate nothing while staged, so no stop of
  // the world can be waiting on a spinning lane.
  if (w.staged.fetch_add(1, std::memory_order_acq_rel) + 1 == w.lanes) {
    if (on_open) {
      on_open();
    }
    const std::uint64_t t = now_ns();
    w.open_ns.store(t, std::memory_order_relaxed);
    w.deadline_ns.store(
        w.seconds > 0.0 ? t + static_cast<std::uint64_t>(w.seconds * 1e9)
                        : std::numeric_limits<std::uint64_t>::max(),
        std::memory_order_relaxed);
    w.go.store(true, std::memory_order_release);
  } else {
    while (!w.go.load(std::memory_order_acquire)) {
      parmem::bench::serve::detail::spin_relax();
    }
  }
  const std::uint64_t deadline = w.deadline_ns.load(std::memory_order_relaxed);
  std::fill(std::begin(lane.slot_id), std::end(lane.slot_id), -1);

  for (;;) {
    const std::uint64_t t0 = now_ns();
    if (t0 >= deadline) {
      break;
    }
    const std::uint64_t id = w.next_id.fetch_add(1, std::memory_order_relaxed);
    if (id >= w.end_id) {
      break;
    }
    ++lane.attempted;
    bool ok = true;
    {
      SpanScope op(SpanKind::kOp, w.run_span);
      try {
        std::int64_t v = parmem::bench::serve::serve_request<R>(c, cfg, id);
        if (table != nullptr) {
          ok = link_and_check<R>(c, *table, lane, lane_idx, cfg.seed, id);
          v += entry_word(cfg.seed, id, 1);
        }
        lane.checksum += static_cast<std::uint64_t>(v);
      } catch (...) {  // OutOfMemory or any other failure of the op
        ok = false;
      }
    }
    const std::uint64_t t1 = now_ns();
    lane.end_ns = t1;
    if (ok) {
      lane.lat_ns.push_back(t1 - t0);
    } else {
      ++lane.failed;
    }
  }
}

template <class R>
void fork_lanes(typename R::Ctx& c, Wave& w, std::vector<Lane>& lanes,
                unsigned lo, unsigned hi, const ServeConfig& cfg,
                const Local* table, const std::function<void()>& on_open) {
  using Ctx = typename R::Ctx;
  if (hi - lo == 1) {
    lane_loop<R>(c, w, lanes[lo], lo, cfg, table, on_open);
    return;
  }
  const unsigned mid = lo + (hi - lo) / 2;
  auto left = [&](Ctx& cc) {
    fork_lanes<R>(cc, w, lanes, lo, mid, cfg, table, on_open);
  };
  auto right = [&](Ctx& cc) {
    fork_lanes<R>(cc, w, lanes, mid, hi, cfg, table, on_open);
  };
  if (table != nullptr) {
    R::fork2(c, {*table}, left, right);
  } else {
    R::fork2(c, {}, left, right);
  }
}

// Runs one wave inside a running root task; returns the lanes.
template <class R>
std::vector<Lane> run_wave(typename R::Ctx& c, Wave& w, const ServeConfig& cfg,
                           const Local* table,
                           const std::function<void()>& on_open = {},
                           std::size_t reserve_per_lane = 0) {
  std::vector<Lane> lanes(w.lanes);
  for (Lane& l : lanes) {
    l.lat_ns.reserve(reserve_per_lane);
  }
  fork_lanes<R>(c, w, lanes, 0, w.lanes, cfg, table, on_open);
  return lanes;
}

inline std::uint64_t wave_checksum(const std::vector<Lane>& lanes) {
  std::uint64_t sum = 0;
  for (const Lane& l : lanes) {
    sum += l.checksum;
  }
  return sum;
}

// Allocates serve_shared's table in the calling (root) task.
template <class Ctx>
Object* alloc_table(Ctx& c, unsigned lanes) {
  return c.alloc(lanes * kSlotsPerLane, 0);
}

// Fixed-count wave over ids [0, n) in a fresh rt.run: the checksum is a
// function of the seed and the ids alone, whatever the runtime and lane
// count, so it is compared against SeqRuntime's.
template <class RT>
std::vector<Lane> verify_wave(RT& rt, unsigned lanes, const ServeConfig& cfg,
                              bool shared, std::uint64_t n) {
  return rt.run([&](typename RT::Ctx& c) {
    RootFrame f(c);
    Local table = f.local(shared ? alloc_table(c, lanes) : nullptr);
    Wave w;
    w.end_id = n;
    w.lanes = lanes;
    return run_wave<RT>(c, w, cfg, shared ? &table : nullptr);
  });
}

struct ServePlan {
  ServeConfig cfg;
  bool shared = false;
  unsigned lanes = 2;
  std::uint64_t warm_ops = 0;  // fixed-count warm-up per set-up
  double seconds = 0.0;
  bool final_setup = false;  // measure a window after this set-up
};

// One set-up of a serve workload on `rt` (viewed through `r`, which is
// rt itself or Traced<RT>): allocate the shared table, run the warm-up
// wave, and, for the final set-up, the measured window. Returns the
// set-up's end time (the window opens right after it).
template <class R, class RT>
std::uint64_t serve_setup_and_window(R& r, RT& rt, const ServePlan& p,
                                     Window& out) {
  std::uint64_t setup_end = 0;
  r.run([&](typename R::Ctx& c) {
    RootFrame f(c);
    Local table = f.local(p.shared ? alloc_table(c, p.lanes) : nullptr);
    const Local* tp = p.shared ? &table : nullptr;
    {
      Wave warm;
      warm.end_id = p.warm_ops;
      warm.lanes = p.lanes;
      for (const Lane& l : run_wave<R>(c, warm, p.cfg, tp)) {
        out.failed += l.failed;  // a failing warm-up op is still a failure
        out.attempted += l.attempted;
      }
    }
    setup_end = now_ns();
    if (!p.final_setup) {
      return 0;
    }
    Wave w;
    w.next_id.store(p.warm_ops, std::memory_order_relaxed);
    w.seconds = p.seconds;
    w.lanes = p.lanes;
    w.run_span = SpanScope::current();
    MemorySampler sampler([&rt] { return rt.live_bytes(); }, kSampleTick);
    std::vector<Lane> lanes = run_wave<R>(
        c, w, p.cfg, tp, [&] { out.open = probe(rt); },
        static_cast<std::size_t>(p.seconds * 100000.0));
    out.close = probe(rt);
    out.peak_bytes = rt.peak_bytes();
    out.open_ns = w.open_ns.load(std::memory_order_relaxed);
    std::uint64_t last = out.open_ns;
    for (const Lane& l : lanes) {
      out.attempted += l.attempted;
      out.failed += l.failed;
      out.lat_ns.insert(out.lat_ns.end(), l.lat_ns.begin(), l.lat_ns.end());
      last = std::max(last, l.end_ns);
    }
    out.close_ns = last;
    out.seconds = static_cast<double>(last - out.open_ns) * 1e-9;
    finish_window(out, sampler);
    return 0;
  });
  return setup_end;
}

// ---- batch ------------------------------------------------------------------

// One kernel run as one op; a result differing from the reference
// checksum is a failed op.
template <class R>
bool batch_op(R& r, const parmem::bench::Sizes& z, std::int64_t reference) {
  SpanScope op(SpanKind::kOp);
  try {
    return parmem::bench::bench_map(r, z).checksum == reference;
  } catch (...) {
    return false;
  }
}

template <class R, class RT>
void batch_window(R& r, RT& rt, const parmem::bench::Sizes& z,
                  std::int64_t reference, double seconds, Window& out) {
  MemorySampler sampler([&rt] { return rt.live_bytes(); }, kSampleTick);
  out.open = probe(rt);
  out.open_ns = now_ns();
  const std::uint64_t deadline =
      out.open_ns + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t last = out.open_ns;
  for (;;) {
    const std::uint64_t t0 = now_ns();
    if (t0 >= deadline) {
      break;
    }
    ++out.attempted;
    const bool ok = batch_op(r, z, reference);
    last = now_ns();
    if (ok) {
      out.lat_ns.push_back(last - t0);
    } else {
      ++out.failed;
    }
  }
  out.close = probe(rt);
  out.peak_bytes = rt.peak_bytes();
  out.close_ns = last;
  out.seconds = static_cast<double>(last - out.open_ns) * 1e-9;
  finish_window(out, sampler);
}

}  // namespace perfbench
