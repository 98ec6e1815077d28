// Observability layer: trace-ring overflow policy, phase-scope
// restoration across fork/steal boundaries, the GC-pause accounting
// invariant (every Stats::gc_count increment yields exactly one pause
// histogram entry), profiler-under-GC-stress correctness, and the
// stats JSON export's structure.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"
#include "core/phase.hpp"
#include "core/profiler.hpp"
#include "core/stats_json.hpp"
#include "core/trace.hpp"
#include "runtimes/localheap_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"
#include "tests/test_util.hpp"

namespace parmem {
namespace {

using namespace parmem::bench;

// ---- trace ring -----------------------------------------------------------

PARMEM_TEST(observe_trace_ring_overflow_drops_oldest) {
  trace::TraceRing ring(4);
  CHECK_EQ(ring.capacity(), 4u);
  CHECK_EQ(ring.size(), 0u);
  CHECK_EQ(ring.dropped(), 0u);

  // Below capacity: nothing dropped, order preserved.
  for (std::uint64_t i = 0; i < 3; ++i) {
    ring.push(trace::Event{i, 10 + i, 0, trace::Ev::kGcLeaf});
  }
  CHECK_EQ(ring.size(), 3u);
  CHECK_EQ(ring.dropped(), 0u);

  // Push past capacity: the ring must keep the NEWEST 4 events and
  // count everything older as dropped.
  for (std::uint64_t i = 3; i < 10; ++i) {
    ring.push(trace::Event{i, 10 + i, 0, trace::Ev::kGateStall});
  }
  CHECK_EQ(ring.total(), 10u);
  CHECK_EQ(ring.size(), 4u);
  CHECK_EQ(ring.dropped(), 6u);

  std::vector<std::uint64_t> starts;
  ring.for_each_oldest_first(
      [&](const trace::Event& e) { starts.push_back(e.start_ns); });
  CHECK_EQ(starts.size(), 4u);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    CHECK_EQ(starts[i], 6u + i);  // oldest survivor is event 6
  }

  ring.clear();
  CHECK_EQ(ring.size(), 0u);
  CHECK_EQ(ring.dropped(), 0u);
}

// ---- phase scopes ---------------------------------------------------------

// Phase scopes must nest on one thread and must not leak across the
// scheduler's boundaries: a task body always starts in kMutator even
// when the executing worker was just in its kSteal loop, and a scope
// opened inside a fork branch is unwound before the join returns.
PARMEM_TEST(observe_phase_scopes_restore_across_fork_and_steal) {
  using Ctx = HierRuntime::Ctx;

  // Single-thread nesting.
  CHECK(phase::current() == phase::Phase::kMutator);
  {
    phase::PhaseScope outer(phase::Phase::kJoinGc);
    CHECK(phase::current() == phase::Phase::kJoinGc);
    {
      phase::PhaseScope inner(phase::Phase::kInternalGc);
      CHECK(phase::current() == phase::Phase::kInternalGc);
    }
    CHECK(phase::current() == phase::Phase::kJoinGc);
  }
  CHECK(phase::current() == phase::Phase::kMutator);

  // Across fork2 and steals: oversubscribe a small fork tree so
  // branches get stolen, and count any task body that does NOT
  // observe kMutator on entry / after a nested scope unwinds.
  std::atomic<std::uint64_t> violations{0};
  HierRuntime::Options opts;
  opts.workers = 4;
  HierRuntime rt(opts);

  struct Walker {
    std::atomic<std::uint64_t>* bad;
    std::int64_t operator()(Ctx& c, int depth) const {
      if (phase::current() != phase::Phase::kMutator) {
        bad->fetch_add(1, std::memory_order_relaxed);
      }
      if (depth == 0) {
        // A GC-ish scope inside a leaf must restore before the task
        // returns to the scheduler.
        phase::PhaseScope s(phase::Phase::kLeafGc);
        if (phase::current() != phase::Phase::kLeafGc) {
          bad->fetch_add(1, std::memory_order_relaxed);
        }
        return 1;
      }
      auto [a, b] = HierRuntime::fork2(
          c, {}, [this, depth](Ctx& cc) { return (*this)(cc, depth - 1); },
          [this, depth](Ctx& cc) { return (*this)(cc, depth - 1); });
      if (phase::current() != phase::Phase::kMutator) {
        bad->fetch_add(1, std::memory_order_relaxed);
      }
      return a + b;
    }
  };

  Walker w{&violations};
  const std::int64_t leaves =
      rt.run([&w](Ctx& ctx) { return w(ctx, 8); });
  CHECK_EQ(leaves, 256);
  CHECK_EQ(violations.load(), 0u);
  CHECK(rt.stats().forks > 0);
  CHECK(phase::current() == phase::Phase::kMutator);
}

// ---- pause-histogram / gc_count invariant ---------------------------------

// Every Stats::gc_count increment must record exactly one pause event
// among the five pause kinds: sum those histograms and compare against
// the runtime's own counter, under stress so every collector (leaf,
// join, internal, parallel, STW team) contributes. Runtimes run one at
// a time and are destroyed (workers joined) before the trace snapshot,
// so the counts are quiescent.
PARMEM_TEST(observe_pause_histogram_totals_match_gc_counters) {
  const Sizes z = [] {
    Sizes s;
    s.scale = 0.0003;
    s.strassen_n = 16;
    s.strassen_cutoff = 8;
    s.usp_side = 18;
    return s;
  }();

  {  // hier under gc_stress: leaf + join + internal collections.
    trace::reset();
    std::uint64_t gcs = 0;
    {
      HierRuntime::Options o;
      o.workers = 2;
      o.gc_stress = true;
      HierRuntime rt(o);
      (void)bench_usp_tree(rt, z);
      gcs = rt.stats().gc_count;
    }
    CHECK(gcs > 0);
    CHECK_EQ(trace::snapshot().pause_count(), gcs);
  }

  // stw with a 1-byte budget: every collection is a stop of the world
  // and records as gc_stw, whether the driver copies alone (always at
  // workers=1) or with recruited parked mutators.
  for (unsigned workers : {1u, 2u}) {
    trace::reset();
    std::uint64_t gcs = 0;
    {
      StwRuntime::Options o;
      o.workers = workers;
      o.gc_min_budget = 1;
      StwRuntime rt(o);
      (void)bench_strassen(rt, z);
      gcs = rt.stats().gc_count;
    }
    CHECK(gcs > 0);
    const trace::Snapshot tr = trace::snapshot();
    CHECK_EQ(tr.pause_count(), gcs);
    CHECK_EQ(tr.by_kind[static_cast<unsigned>(trace::Ev::kGcStw)].count(),
             gcs);
    CHECK_EQ(tr.by_kind[static_cast<unsigned>(trace::Ev::kGcLeaf)].count(),
             0u);
  }

  // The gc_stw spans cover the whole stop, the merge of the worker
  // buffers included: on a warm runtime (every worker's trace slot
  // exists) their total is within 10 % of the stopped wall time
  // StopGuard bills as gc_pause_ns, which adds only the budget checks
  // around them. Parallel stops (two workers) of a forking kernel with
  // a 64 KiB trigger: about 45 stops of about 30 us. A preemption
  // between the two clocks can sink one run, so any of three may pass.
  {
    Sizes zs;
    zs.strassen_n = 64;
    zs.strassen_cutoff = 16;
    StwRuntime::Options o;
    o.workers = 2;
    o.gc_min_budget = std::size_t{64} << 10;
    o.gc_growth_factor = 0;
    StwRuntime rt(o);
    (void)bench_strassen(rt, zs);
    double best = 0;
    for (int run = 0; run < 3 && best < 0.9; ++run) {
      trace::reset();
      const Stats before = rt.stats();
      (void)bench_strassen(rt, zs);
      const Stats s = rt.stats() - before;
      const std::uint64_t spans =
          trace::snapshot().by_kind[static_cast<unsigned>(trace::Ev::kGcStw)]
              .sum_ns();
      std::fprintf(stderr, "stw: %llu collections, gc_stw spans %llu ns, "
                   "gc_pause_ns %llu\n",
                   static_cast<unsigned long long>(s.gc_count),
                   static_cast<unsigned long long>(spans),
                   static_cast<unsigned long long>(s.gc_pause_ns));
      CHECK(s.gc_count > 0);
      CHECK(spans <= s.gc_pause_ns);
      best = std::max(best, static_cast<double>(spans) /
                                static_cast<double>(s.gc_pause_ns));
    }
    CHECK(best >= 0.9);
  }

  {  // localheap: sequential leaf collections + promotions.
    trace::reset();
    std::uint64_t gcs = 0;
    {
      LhRuntime::Options o;
      o.workers = 2;
      o.gc_min_budget = 1;
      LhRuntime rt(o);
      (void)bench_usp_tree(rt, z);
      gcs = rt.stats().gc_count;
    }
    CHECK(gcs > 0);
    CHECK_EQ(trace::snapshot().pause_count(), gcs);
  }

  {  // seq: the single-heap baseline.
    trace::reset();
    std::uint64_t gcs = 0;
    {
      SeqRuntime::Options o;
      o.gc_min_budget = 1;
      SeqRuntime rt(o);
      (void)bench_strassen(rt, z);
      gcs = rt.stats().gc_count;
    }
    CHECK(gcs > 0);
    CHECK_EQ(trace::snapshot().pause_count(), gcs);
  }
  trace::reset();
}

// ---- profiler under GC stress ---------------------------------------------

std::uint64_t process_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// The sampling profiler's SIGPROF handler interrupts collectors,
// promotions, and barrier slow paths at ~1 kHz; the kernel's checksum
// must be byte-identical to an unprofiled sequential run, and the
// collapsed output must carry the symbolization header.
PARMEM_TEST(observe_profiler_gc_stress_checksum_correct) {
  Sizes z;
  z.scale = 0.0003;
  z.ray_w = 64;
  z.ray_h = 48;

  SeqRuntime plain;
  const std::int64_t ref = bench_raytracer(plain, z).checksum;

  CHECK(profiler::start(997));
  CHECK(profiler::running());
  // Repeat until a sample lands. ITIMER_PROF counts consumed process
  // CPU, but delivery lags it by tens of timer periods: the first
  // sample took 22-87 ms of process CPU in 140 runs on a 4-vCPU box,
  // under concurrent load, while 400 rounds burn only about 80 ms. So
  // the loop is bounded by consumed CPU, not by a round count whose
  // cost varies from box to box.
  constexpr std::uint64_t kBurnCpuNs = 2'000'000'000;
  const std::uint64_t cpu0 = process_cpu_ns();
  for (int round = 0; process_cpu_ns() - cpu0 < kBurnCpuNs; ++round) {
    HierRuntime::Options o;
    o.workers = 2;
    o.gc_stress = true;
    HierRuntime rt(o);
    CHECK_EQ(bench_raytracer(rt, z).checksum, ref);
    if (profiler::sample_count() > 0 && round >= 1) {
      break;
    }
  }
  profiler::stop();
  CHECK(!profiler::running());
  CHECK(profiler::sample_count() > 0);

  const char* path = "observe_profile.tmp.folded";
  CHECK(profiler::write_collapsed(path));
  std::FILE* f = std::fopen(path, "r");
  CHECK(f != nullptr);
  char line[4096];
  CHECK(std::fgets(line, sizeof line, f) != nullptr);
  CHECK(std::strncmp(line, "# parmem-profile binary=", 24) == 0);
  CHECK(std::strstr(line, " base=0x") != nullptr);
  // At least one folded stack, phase-tagged and hex-framed.
  CHECK(std::fgets(line, sizeof line, f) != nullptr);
  CHECK(std::strstr(line, ";0x") != nullptr);
  std::fclose(f);
  std::remove(path);
}

// ---- stats JSON export ----------------------------------------------------

// Minimal structural JSON check (no parser dependency): every brace /
// bracket balances outside strings, quotes pair up, and the line ends
// exactly when the top-level object closes.
bool json_object_line_wellformed(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      if (depth < 0) {
        return false;
      }
      if (depth == 0 && i + 1 != s.size()) {
        return false;  // trailing garbage after the object closes
      }
    }
  }
  return depth == 0 && !in_str && !s.empty() && s[0] == '{';
}

PARMEM_TEST(observe_stats_json_export_parses) {
  const char* path = "observe_stats.tmp.json";
  std::remove(path);
  trace::reset();

  Sizes z;
  z.scale = 0.0003;
  z.strassen_n = 16;
  z.strassen_cutoff = 8;

  {  // Four runtimes, one path: first truncates, the rest append.
    SeqRuntime::Options o;
    o.gc_min_budget = 1;
    o.stats_json_path = path;
    SeqRuntime rt(o);
    (void)bench_strassen(rt, z);
  }
  {
    StwRuntime::Options o;
    o.workers = 2;
    o.gc_min_budget = 1;
    o.stats_json_path = path;
    StwRuntime rt(o);
    (void)bench_strassen(rt, z);
  }
  {
    LhRuntime::Options o;
    o.workers = 2;
    o.gc_global_threshold = 4096;
    o.stats_json_path = path;
    LhRuntime rt(o);
    (void)bench_strassen(rt, z);
  }
  {
    HierRuntime::Options o;
    o.workers = 2;
    o.gc_stress = true;
    o.stats_json_path = path;
    HierRuntime rt(o);
    (void)bench_strassen(rt, z);
  }

  std::FILE* f = std::fopen(path, "r");
  CHECK(f != nullptr);
  std::vector<std::string> lines;
  char buf[8192];
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    std::string s(buf);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
      s.pop_back();
    }
    if (!s.empty()) {
      lines.push_back(s);
    }
  }
  std::fclose(f);

  CHECK_EQ(lines.size(), 4u);
  for (const std::string& s : lines) {
    CHECK(json_object_line_wellformed(s));
    CHECK(s.find("\"runtime\":\"") != std::string::npos);
    CHECK(s.find("\"gc_count\":") != std::string::npos);
    CHECK(s.find("\"gc_kept\":") != std::string::npos);
    CHECK(s.find("\"pauses\":{") != std::string::npos);
    CHECK(s.find("\"gc_leaf\":{\"count\":") != std::string::npos);
    CHECK(s.find("\"peak_bytes\":") != std::string::npos);
    // Every line records the configuration that produced it.
    for (const char* key :
         {"\"config\":{\"workers\":", "\"heap_budget_bytes\":",
          "\"gc_min_budget\":", "\"gc_growth_factor\":8,",
          "\"gc_stress\":"}) {
      CHECK(s.find(key) != std::string::npos);
    }
  }
  CHECK(lines[0].find("\"runtime\":\"seq\",\"config\":{\"workers\":1,") !=
        std::string::npos);
  CHECK(lines[1].find("\"runtime\":\"stw\",\"config\":{\"workers\":2,") !=
        std::string::npos);
  CHECK(lines[2].find(
            "\"runtime\":\"localheap\",\"config\":{\"workers\":2,") !=
        std::string::npos);
  CHECK(lines[3].find("\"runtime\":\"hier\",\"config\":{\"workers\":2,") !=
        std::string::npos);
  CHECK(lines[0].find("\"gc_min_budget\":1,") != std::string::npos);
  CHECK(lines[1].find("\"gc_min_budget\":1,") != std::string::npos);
  CHECK(lines[2].find("\"gc_global_threshold\":4096}") != std::string::npos);
  CHECK(lines[3].find("\"gc_stress\":true,") != std::string::npos);
  CHECK(lines[3].find("\"gc_join_threshold\":0,") != std::string::npos);
  CHECK(lines[3].find("\"gc_internal_threshold\":") != std::string::npos);
  // Hier's evacuation team and promotion protocol: runs that differ in
  // either must not be compared as the same configuration.
  CHECK(lines[3].find("\"gc_parallel_team\":0,\"promotion\":\"coarse\"}") !=
        std::string::npos);
  for (int i = 0; i < 3; ++i) {
    CHECK(lines[i].find("\"gc_parallel_team\":") == std::string::npos);
    CHECK(lines[i].find("\"promotion\":\"") == std::string::npos);
  }

  // The seq, stw and hier runs collected; their exports must say so.
  CHECK(lines[0].find("\"gc_count\":0,") == std::string::npos);
  CHECK(lines[1].find("\"gc_count\":0,") == std::string::npos);
  CHECK(lines[3].find("\"gc_count\":0,") == std::string::npos);

  std::remove(path);
  trace::reset();
}

// The counter table (core/stats.hpp) is the one definition of every
// counter: a distinct value per counter must survive
// StatsCell::snapshot, Stats += and -, and reach the stats JSON line
// under the counter's key, with the keys in their documented order.
PARMEM_TEST(observe_stats_counter_table_roundtrip) {
  const char* const keys[] = {
      "promotions",        "promoted_objects",  "promoted_bytes",
      "promo_claim_conflicts", "gc_count",      "gc_bytes_copied",
      "gc_kept",           "gc_ns",             "gc_pause_ns",
      "forks",             "internal_gc_count", "internal_gc_bytes",
      "global_gc_count",   "global_gc_bytes",   "emergency_gcs"};
  auto value_of = [](std::size_t i) { return 1000 + 37 * i; };

  StatsCell cell;
  std::size_t n = 0;
  for_each_counter([&](const char* key, auto, auto field) {
    CHECK(n < std::size(keys));
    CHECK(std::strcmp(key, keys[n]) == 0);
    (cell.*field).store(value_of(n), std::memory_order_relaxed);
    ++n;
  });
  CHECK_EQ(n, std::size(keys));

  StatsSnapshot snap;
  snap.stats = cell.snapshot();
  Stats twice = snap.stats;
  twice += snap.stats;
  const Stats diff = twice - snap.stats;

  const char* path = "observe_counter_table.tmp.json";
  std::remove(path);
  CHECK(stats_json::write(path, "table", "{}", snap));
  std::FILE* f = std::fopen(path, "r");
  CHECK(f != nullptr);
  char buf[8192];
  CHECK(std::fgets(buf, sizeof buf, f) != nullptr);
  std::fclose(f);
  std::remove(path);
  const std::string line(buf);
  CHECK(json_object_line_wellformed(line.substr(0, line.find('\n'))));

  std::string counters = "\"counters\":{";
  n = 0;
  for_each_counter([&](const char*, auto field, auto) {
    const std::uint64_t v = value_of(n);
    CHECK_EQ(snap.stats.*field, v);
    CHECK_EQ(twice.*field, 2 * v);
    CHECK_EQ(diff.*field, v);
    counters += (n == 0 ? "\"" : ",\"") + std::string(keys[n]) +
                "\":" + std::to_string(v);
    ++n;
  });
  counters += "},\"memory\":";
  CHECK(line.find(counters) != std::string::npos);
}

}  // namespace
}  // namespace parmem
