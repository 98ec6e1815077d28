// perfbench: one measured run of one workload of the parmem benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH]
//
// Workloads (runtime options are part of the workload, set below):
//   serve         HierRuntime, the rope/dedup/reach session mix of
//                 bench_common/serve_harness.hpp, join collection at
//                 kJoinThreshold
//   serve_shared  serve, plus each request links a fresh entry into a
//                 table the root task allocated before the lanes forked
//                 and reads earlier entries back; internal collection at
//                 kSharedInternalThreshold
//   batch_pure    HierRuntime, repeated runs of the `map` kernel at 2^24
//   serve_stw     the serve mix on StwRuntime
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans
// (perfbench/src/traced.hpp), writes them to --spans-out, and prints the
// per-layer metrics instead. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 0 only when every output check passed and, in a
// traced run, every layer check (layer_check below) held.
//
// End-to-end metrics (--trace 0), over the measured window:
//   throughput_ops  ops completed per second of the window
//   p50_us          exact median of every op latency in the window
//   steady_rss_mb   median process RSS over the window's second half
//   peak_rss_mb     highest process RSS sampled in the window
//   cpu_us_per_op   process user + system CPU time per completed op
//   setup_s         median over kSetups set-ups of the time from
//                   constructing a runtime to the end of its warm-up,
//                   where the measured window opens
// Failed ops (an exception, OutOfMemory, or a result differing from the
// SeqRuntime reference) are counted in "failed"; failed / attempted is
// the error rate printed beside the metrics.
//
// The 99th-percentile op latency is a traced-run metric (traced.p99_us),
// not an end-to-end one: on the serve workloads it is set by requests
// that meet a stopped-world collection, and on a 4-vCPU VM it followed
// the shared host's load, swinging by up to 2x between seconds of one
// run. At a 512 KB join threshold its
// interquartile range over ten runs reached 0.42 of its median; at
// kJoinThreshold about 1 % of requests meet a collection, so p99 sits on
// the edge of them and moved by a third between identical runs. Both
// are above any bound a regression check could use.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/hier_runtime.hpp"
#include "perfbench/src/metrics.hpp"
#include "perfbench/src/traced.hpp"
#include "perfbench/src/workloads.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"

extern char** environ;

namespace perfbench {
namespace {

using parmem::HierRuntime;
using parmem::SeqRuntime;
using parmem::StwRuntime;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr unsigned kWorkers = 2;  // leaves cores for the sampler and the OS
constexpr int kSetups = 5;        // setup_s is the median of these
constexpr std::uint64_t kWarmOps = 5000;
constexpr std::uint64_t kVerifyOps = 600;
// bench/serve.cpp's setting for the request path.
constexpr std::size_t kJoinThreshold = std::size_t{1} << 20;
// serve_shared promotes one 80-byte entry into the root heap per request
// (promote.kb_per_op 0.078, measured). 8 KB of them is 102 requests,
// and join collection runs once per 107 requests on serve at
// kJoinThreshold (265 pauses/s at 28.3 k op/s, measured), so the two
// stopped-world collectors run about equally often here.
constexpr std::size_t kSharedInternalThreshold = std::size_t{8} << 10;
// Spans kept per traced run (24 bytes each). Serve fills it after a few
// seconds; the span-derived metrics are normalised by the ops recorded,
// so they cover that prefix of the window.
constexpr std::size_t kSpanArenaCap = std::size_t{1} << 21;
constexpr double kMB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const char* name, double value, const char* unit) {
    metrics.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
  }
};

// ---- pinned configuration ---------------------------------------------------

HierRuntime::Options hier_options(std::size_t join_threshold,
                                  std::size_t internal_threshold) {
  HierRuntime::Options o;
  o.workers = kWorkers;
  o.promotion = parmem::PromotionMode::kCoarseLocking;
  o.gc_min_budget = std::size_t{4} << 20;
  o.gc_join_threshold = join_threshold;
  o.gc_growth_factor = 8.0;
  o.gc_parallel_team = 0;
  o.gc_internal_threshold = internal_threshold;
  o.gc_stress = false;
  o.heap_budget_bytes = 0;
  o.failpoints = "";
  o.stats_json_path = "";
  return o;
}

StwRuntime::Options stw_options() {
  StwRuntime::Options o;
  o.workers = kWorkers;
  o.gc_min_budget = std::size_t{32} << 20;
  o.gc_growth_factor = 8.0;
  o.heap_budget_bytes = 0;
  o.failpoints = "";
  o.stats_json_path = "";
  return o;
}

SeqRuntime::Options seq_options() {
  SeqRuntime::Options o;
  o.workers = 1;
  o.gc_min_budget = std::size_t{4} << 20;
  o.gc_growth_factor = 8.0;
  o.heap_budget_bytes = 0;
  o.failpoints = "";
  o.stats_json_path = "";
  return o;
}

void print_options(const char* role, const HierRuntime::Options& o) {
  std::printf(
      "# %s hier: workers=%u promotion=%s gc_min_budget=%zu "
      "gc_join_threshold=%zu gc_growth_factor=%g gc_parallel_team=%u "
      "gc_internal_threshold=%zu gc_stress=%d heap_budget_bytes=%zu "
      "failpoints=\"%s\"\n",
      role, o.workers,
      o.promotion == parmem::PromotionMode::kCoarseLocking ? "coarse"
                                                           : "fine",
      o.gc_min_budget, o.gc_join_threshold, o.gc_growth_factor,
      o.gc_parallel_team, o.gc_internal_threshold, o.gc_stress ? 1 : 0,
      o.heap_budget_bytes, o.failpoints.c_str());
}

void print_options(const char* role, const StwRuntime::Options& o) {
  std::printf(
      "# %s stw: workers=%u gc_min_budget=%zu gc_growth_factor=%g "
      "heap_budget_bytes=%zu failpoints=\"%s\"\n",
      role, o.workers, o.gc_min_budget, o.gc_growth_factor,
      o.heap_budget_bytes, o.failpoints.c_str());
}

void print_options(const char* role, const SeqRuntime::Options& o) {
  std::printf(
      "# %s seq: workers=%u gc_min_budget=%zu gc_growth_factor=%g "
      "heap_budget_bytes=%zu failpoints=\"%s\"\n",
      role, o.workers, o.gc_min_budget, o.gc_growth_factor,
      o.heap_budget_bytes, o.failpoints.c_str());
}

ServeConfig serve_config(std::uint64_t seed) {
  ServeConfig c;
  c.lanes = kWorkers;
  c.seed = seed;
  c.session_elems = 1024;
  c.dedup_slots = 512;
  c.reach_verts = 256;
  c.grain = 256;
  return c;
}

parmem::bench::Sizes batch_sizes(std::uint64_t seed) {
  parmem::bench::Sizes z;
  z.seq_n = std::int64_t{1} << 24;
  z.seq_grain = 8192;
  z.seed = seed;
  return z;
}

// A stray PARMEM_* variable would silently measure a different program
// (GC stress, a heap budget, fault injection, tracing, profiling...).
bool refuse_parmem_env() {
  bool found = false;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PARMEM_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      std::fprintf(stderr, "perfbench: refusing to run with %.*s set\n",
                   static_cast<int>(eq != nullptr ? eq - *e : 64), *e);
      found = true;
    }
  }
  return found;
}

// ---- metrics ----------------------------------------------------------------

// Throughput over the whole window and exact percentiles over every op
// latency in it.
struct Headline {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

Headline headline(const Window& w) {
  std::vector<std::uint64_t> lat = w.lat_ns;
  std::sort(lat.begin(), lat.end());
  std::printf("# %zu ops in %.3f s\n", lat.size(), w.seconds);
  return Headline{
      w.seconds > 0.0 ? static_cast<double>(lat.size()) / w.seconds : 0.0,
      static_cast<double>(exact_percentile(lat, 0.50)) * 1e-3,
      static_cast<double>(exact_percentile(lat, 0.99)) * 1e-3};
}

void end_to_end_metrics(const Window& w, const std::vector<double>& setups,
                        Report& rep) {
  const Headline h = headline(w);
  rep.add("throughput_ops", h.ops_per_s, "op/s");
  rep.add("p50_us", h.p50_us, "us");
  rep.add("steady_rss_mb", static_cast<double>(w.steady_rss) / kMB, "MB");
  rep.add("peak_rss_mb", static_cast<double>(w.peak_rss) / kMB, "MB");
  rep.add("cpu_us_per_op",
          (w.close.cpu_s - w.open.cpu_s) * 1e6 /
              static_cast<double>(w.lat_ns.size()),
          "us/op");
  rep.add("setup_s", median(setups), "s");
}

void per_layer_metrics(const Window& w, const std::vector<Span>& spans,
                       std::size_t span_bytes, Report& rep) {
  using parmem::trace::Ev;
  const double secs = w.seconds;
  const double ops = static_cast<double>(w.lat_ns.size());
  const parmem::Stats d = w.close.stats - w.open.stats;
  auto delta = [&](Ev k) {
    const unsigned i = static_cast<unsigned>(k);
    return HistogramDelta(w.close.trace->by_kind[i], w.open.trace->by_kind[i]);
  };
  auto per_s = [&](double v) { return v / secs; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // Scheduler: spans that started inside the window.
  const std::vector<std::uint64_t> self = self_times(spans);
  double op_spans = 0;
  double forks = 0;
  double fork_self_ns = 0;
  double stolen = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.start_ns < w.open_ns || s.start_ns > w.close_ns) {
      continue;
    }
    switch (s.kind) {
      case SpanKind::kOp:
        ++op_spans;
        break;
      case SpanKind::kFork2:
        ++forks;
        fork_self_ns += static_cast<double>(self[i]);
        break;
      case SpanKind::kBranch:
        if (s.parent != kNoParent && spans[s.parent].thread != s.thread) {
          ++stolen;
        }
        break;
      case SpanKind::kRun:
        break;
    }
  }
  rep.add("sched.forks_per_op", ratio(forks, op_spans), "1/op");
  rep.add("sched.fork2_self_us", ratio(fork_self_ns * 1e-3, op_spans),
          "us/op");
  rep.add("sched.steal_ratio", ratio(stolen, forks), "ratio");
  rep.add("sched.idle_wakeups",
          per_s(static_cast<double>(w.close.idle_wakeups -
                                    w.open.idle_wakeups)),
          "1/s");

  const HistogramDelta gate = delta(Ev::kGateStall);
  rep.add("gate.stalls_per_s", per_s(static_cast<double>(gate.count())), "1/s");
  rep.add("gate.stall_ms_per_s", per_s(static_cast<double>(gate.sum_ns()) * 1e-6),
          "ms/s");

  const HistogramDelta join = delta(Ev::kGcJoin);
  rep.add("gc_join.pauses_per_s", per_s(static_cast<double>(join.count())),
          "1/s");
  rep.add("gc_join.pause_ms_per_s",
          per_s(static_cast<double>(join.sum_ns()) * 1e-6), "ms/s");
  rep.add("gc_join.pause_p99_us",
          static_cast<double>(join.percentile_ns(0.99)) * 1e-3, "us");

  const HistogramDelta leaf = delta(Ev::kGcLeaf);
  rep.add("gc_leaf.pauses_per_s", per_s(static_cast<double>(leaf.count())),
          "1/s");
  rep.add("gc_leaf.pause_ms_per_s",
          per_s(static_cast<double>(leaf.sum_ns()) * 1e-6), "ms/s");

  const HistogramDelta internal = delta(Ev::kGcInternal);
  rep.add("gc_internal.pauses_per_s",
          per_s(static_cast<double>(internal.count())), "1/s");
  rep.add("gc_internal.pause_ms_per_s",
          per_s(static_cast<double>(internal.sum_ns()) * 1e-6), "ms/s");
  rep.add("gc_internal.copied_mb_per_s",
          per_s(static_cast<double>(d.internal_gc_bytes) / kMB), "MB/s");

  const HistogramDelta stw = delta(Ev::kGcStw);
  rep.add("gc_stw.pauses_per_s", per_s(static_cast<double>(stw.count())),
          "1/s");
  rep.add("gc_stw.pause_ms_per_s",
          per_s(static_cast<double>(stw.sum_ns()) * 1e-6), "ms/s");

  rep.add("gc.copied_kb_per_pause",
          ratio(static_cast<double>(d.gc_bytes_copied) / 1024.0,
                static_cast<double>(d.gc_count)),
          "KB");
  rep.add("gc.busy_ms_per_s", per_s(static_cast<double>(d.gc_ns) * 1e-6),
          "ms/s");
  rep.add("gc.emergency", per_s(static_cast<double>(d.emergency_gcs)), "1/s");

  rep.add("promote.per_op", ratio(static_cast<double>(d.promotions), ops),
          "1/op");
  rep.add("promote.kb_per_op",
          ratio(static_cast<double>(d.promoted_bytes) / 1024.0, ops), "KB/op");
  rep.add("promote.conflict_ratio",
          ratio(static_cast<double>(d.promo_claim_conflicts),
                static_cast<double>(d.promotions)),
          "ratio");

  // The span arena is touched before the window opens, so it is a
  // constant part of RSS that is not heap.
  const double heap_rss =
      static_cast<double>(w.steady_rss) - static_cast<double>(span_bytes);
  rep.add("heap.live_mb", static_cast<double>(w.steady_live) / kMB, "MB");
  rep.add("heap.peak_mb", static_cast<double>(w.peak_bytes) / kMB, "MB");
  rep.add("heap.frag_ratio",
          ratio(heap_rss, static_cast<double>(w.steady_live)), "ratio");

  rep.add("os.cpu_util",
          ratio(w.close.cpu_s - w.open.cpu_s, secs * kWorkers), "ratio");
  rep.add("os.invol_csw_per_s",
          per_s(static_cast<double>(w.close.invol_csw - w.open.invol_csw)),
          "1/s");

  const Headline h = headline(w);
  rep.add("traced.throughput_ops", h.ops_per_s, "op/s");
  rep.add("traced.p99_us", h.p99_us, "us");
}

// What a traced run must show for its workload to measure the layers it
// was chosen for (BENCHMARK.json's "why" lines): metrics that must be
// above 0, and metrics of layers the workload is meant to leave out,
// which must stay 0. On batch_pure the other collectors stay silent, so
// leaf collection is all of its collector time. A run that breaks one
// fails, since a layer would otherwise drop out of the benchmark, or
// leak into a workload chosen to exclude it, unnoticed.
struct LayerCheck {
  std::vector<const char*> active;
  std::vector<const char*> silent;
};

LayerCheck layer_check(const std::string& workload) {
  if (workload == "serve") {
    return {{"gate.stalls_per_s", "gc_join.pauses_per_s"},
            {"promote.per_op", "gc_internal.pauses_per_s",
             "gc_stw.pauses_per_s"}};
  }
  if (workload == "serve_shared") {
    return {{"promote.per_op", "gc_internal.pauses_per_s",
             "gate.stalls_per_s", "gc_join.pauses_per_s"},
            {"gc_stw.pauses_per_s"}};
  }
  if (workload == "batch_pure") {
    return {{"gc_leaf.pauses_per_s"},
            {"gate.stalls_per_s", "gc_join.pauses_per_s",
             "gc_internal.pauses_per_s", "gc_stw.pauses_per_s",
             "promote.per_op"}};
  }
  return {{"gc_stw.pauses_per_s"},
          {"promote.per_op", "gc_join.pauses_per_s",
           "gc_internal.pauses_per_s"}};
}

void check_layers(const std::string& workload, Report& rep) {
  const LayerCheck want = layer_check(workload);
  for (const Metric& m : rep.metrics) {
    for (const char* name : want.active) {
      if (std::strcmp(m.name, name) == 0 && !(m.value > 0.0)) {
        std::printf("# layer check: %s is 0 on %s\n", name, workload.c_str());
        rep.correct = false;
      }
    }
    for (const char* name : want.silent) {
      if (std::strcmp(m.name, name) == 0 && m.value != 0.0) {
        std::printf("# layer check: %s is %g on %s, expected 0\n", name,
                    m.value, workload.c_str());
        rep.correct = false;
      }
    }
  }
}

void finish_trace(const Args& a, const Window& w, Report& rep) {
  SpanArena& arena = SpanArena::get();
  arena.set_recording(false);
  const std::vector<Span> spans = arena.recorded();
  std::printf("# spans recorded: %zu, dropped when the arena was full: %llu\n",
              spans.size(), static_cast<unsigned long long>(arena.dropped()));
  if (!a.spans_out.empty() && !arena.write(a.spans_out.c_str())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans_out.c_str());
  }
  per_layer_metrics(w, spans, arena.bytes(), rep);
  check_layers(a.workload, rep);
}

void report_window(const Args& a, const Window& win,
                   const std::vector<double>& setups, Report& rep) {
  std::printf("# setup_s samples:");
  for (double t : setups) {
    std::printf(" %.6f", t);
  }
  std::printf("\n");
  if (a.trace) {
    finish_trace(a, win, rep);
  } else {
    end_to_end_metrics(win, setups, rep);
  }
  if (win.lat_ns.empty()) {
    rep.correct = false;
  }
}

// ---- workloads --------------------------------------------------------------

template <class RT, bool kTrace>
Report run_serve(const Args& a, const typename RT::Options& opts,
                 bool shared) {
  Report rep;
  const ServeConfig cfg = serve_config(a.seed);
  print_options("runtime", opts);
  print_options("reference", seq_options());
  std::printf(
      "# serve: lanes=%u session_elems=%lld dedup_slots=%lld "
      "reach_verts=%lld grain=%lld shared_table=%d slots_per_lane=%u "
      "warm_ops=%llu verify_ops=%llu\n",
      kWorkers, static_cast<long long>(cfg.session_elems),
      static_cast<long long>(cfg.dedup_slots),
      static_cast<long long>(cfg.reach_verts),
      static_cast<long long>(cfg.grain), shared ? 1 : 0, kSlotsPerLane,
      static_cast<unsigned long long>(kWarmOps),
      static_cast<unsigned long long>(kVerifyOps));

  std::uint64_t reference = 0;
  {
    SeqRuntime seq(seq_options());
    const std::vector<Lane> ref = verify_wave(seq, 1, cfg, shared, kVerifyOps);
    reference = wave_checksum(ref);
    if (ref[0].failed != 0) {
      std::printf("# reference run failed %llu ops\n",
                  static_cast<unsigned long long>(ref[0].failed));
      rep.correct = false;
    }
  }

  ServePlan plan;
  plan.cfg = cfg;
  plan.shared = shared;
  plan.lanes = kWorkers;
  plan.warm_ops = kWarmOps;
  plan.seconds = a.seconds;
  std::vector<double> setups;
  Window win;
  for (int s = 0; s < kSetups; ++s) {
    plan.final_setup = s == kSetups - 1;
    if (kTrace && plan.final_setup) {
      SpanArena::get().reset(kSpanArenaCap);
      SpanArena::get().set_recording(true);
    }
    Window w;
    const std::uint64_t t0 = now_ns();
    RT rt(opts);
    std::uint64_t end = 0;
    if constexpr (kTrace) {
      Traced<RT> tr(rt);
      end = serve_setup_and_window(tr, rt, plan, w);
    } else {
      end = serve_setup_and_window(rt, rt, plan, w);
    }
    setups.push_back(static_cast<double>(end - t0) * 1e-9);
    rep.attempted += w.attempted;
    rep.failed += w.failed;
    if (!plan.final_setup) {
      continue;
    }
    if constexpr (kTrace) {
      SpanArena::get().set_recording(false);
    }
    // Correctness gate on the measured runtime: ids [0, n) against the
    // SeqRuntime reference.
    const std::vector<Lane> v =
        verify_wave(rt, kWorkers, cfg, shared, kVerifyOps);
    const std::uint64_t got = wave_checksum(v);
    for (const Lane& l : v) {
      rep.attempted += l.attempted;
      rep.failed += l.failed;
    }
    std::printf("# verify: %llu ops, checksum %llu, reference %llu: %s\n",
                static_cast<unsigned long long>(kVerifyOps),
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(reference),
                got == reference ? "match" : "MISMATCH");
    if (got != reference) {
      rep.failed += kVerifyOps;
      rep.correct = false;
    }
    win = std::move(w);
  }
  report_window(a, win, setups, rep);
  return rep;
}

template <bool kTrace>
Report run_batch(const Args& a) {
  Report rep;
  const HierRuntime::Options opts = hier_options(0, 0);
  const parmem::bench::Sizes z = batch_sizes(a.seed);
  print_options("runtime", opts);
  print_options("reference", seq_options());
  std::printf("# batch: kernel=map elems=%lld grain=%lld\n",
              static_cast<long long>(z.seq_n),
              static_cast<long long>(z.seq_grain));

  std::int64_t reference = 0;
  {
    SeqRuntime seq(seq_options());
    reference = parmem::bench::bench_map(seq, z).checksum;
  }
  std::printf("# reference checksum %lld\n",
              static_cast<long long>(reference));

  std::vector<double> setups;
  Window win;
  for (int s = 0; s < kSetups; ++s) {
    const bool final_setup = s == kSetups - 1;
    const std::uint64_t t0 = now_ns();
    HierRuntime rt(opts);
    Traced<HierRuntime> tr(rt);
    // Set-up ends with one checked warm-up kernel run.
    const bool ok = kTrace ? batch_op(tr, z, reference)
                           : batch_op(rt, z, reference);
    const std::uint64_t end = now_ns();
    ++rep.attempted;
    rep.failed += ok ? 0 : 1;
    setups.push_back(static_cast<double>(end - t0) * 1e-9);
    if (!final_setup) {
      continue;
    }
    Window w;
    if constexpr (kTrace) {
      SpanArena::get().reset(kSpanArenaCap);
      SpanArena::get().set_recording(true);
      batch_window(tr, rt, z, reference, a.seconds, w);
    } else {
      batch_window(rt, rt, z, reference, a.seconds, w);
    }
    rep.attempted += w.attempted;
    rep.failed += w.failed;
    win = std::move(w);
  }
  report_window(a, win, setups, rep);
  return rep;
}

// ---- command line -----------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: %s needs a value\n", key.c_str());
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
        std::fprintf(stderr, "perfbench: --seconds must be in (0, 600]\n");
        return false;
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        std::fprintf(stderr, "perfbench: --trace must be 0 or 1\n");
        return false;
      }
      a.trace = val == "1";
    } else if (key == "--spans-out") {
      a.spans_out = val;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || val.empty())) {
      std::fprintf(stderr, "perfbench: bad number for %s: %s\n", key.c_str(),
                   val.c_str());
      return false;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
  }
  return have_workload;
}

template <bool kTrace>
bool run_workload(const Args& a, Report& rep) {
  if (a.workload == "serve") {
    rep = run_serve<HierRuntime, kTrace>(a, hier_options(kJoinThreshold, 0),
                                         false);
  } else if (a.workload == "serve_shared") {
    rep = run_serve<HierRuntime, kTrace>(
        a, hier_options(kJoinThreshold, kSharedInternalThreshold), true);
  } else if (a.workload == "batch_pure") {
    rep = run_batch<kTrace>(a);
  } else if (a.workload == "serve_stw") {
    rep = run_serve<StwRuntime, kTrace>(a, stw_options(), false);
  } else {
    return false;
  }
  return true;
}

void print_report(const Report& rep) {
  for (const Metric& m : rep.metrics) {
    std::printf("%-28s %14.4f %s\n", m.name, m.value, m.unit);
  }
  std::printf("%-28s %14.6f (failed %llu of %llu attempted)\n", "error_rate",
              rep.attempted != 0 ? static_cast<double>(rep.failed) /
                                       static_cast<double>(rep.attempted)
                                 : 0.0,
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      rep.correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name, m.value, m.unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a) || refuse_parmem_env()) {
    return 2;
  }
  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d build=%s "
      "workers=%u load=closed-loop,one-client-per-lane setups=%d\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, kWorkers, kSetups);
  Report rep;
  const bool known =
      a.trace ? run_workload<true>(a, rep) : run_workload<false>(a, rep);
  if (!known) {
    std::fprintf(stderr,
                 "perfbench: unknown workload %s "
                 "(serve|serve_shared|batch_pure|serve_stw)\n",
                 a.workload.c_str());
    return 2;
  }
  if (rep.failed != 0) {
    rep.correct = false;
  }
  print_report(rep);
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}
