// parmem-serve: steady-state serving comparison across the four
// runtimes (seq / stw / localheap / hier). Two passes per runtime:
//
//   1. a fixed-count VERIFY wave -- every runtime processes request ids
//      [0, N) exactly once and must produce the same commutative
//      checksum (request results are pure functions of (seed, id)), so
//      a mismatch is a correctness bug, not noise; and
//   2. a fixed-duration MEASURED wave -- millions of independent
//      requests for --duration seconds (after a warmup that is
//      excluded), reporting throughput, p50/p95/p99/max request
//      latency from the per-lane merged histograms, peak and
//      steady-state RSS, and the fragmentation ratio RSS / live bytes.
//
// Run with --procs=P --duration=SECS --warmup=SECS --requests=N
// --seed=S --json=PATH --quick. scripts/run_bench.sh records the JSON
// as the BENCH_serve.json baseline.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common/harness.hpp"
#include "bench_common/serve_harness.hpp"
#include "core/config.hpp"
#include "core/hier_runtime.hpp"
#include "runtimes/localheap_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"

namespace parmem::bench {
namespace {

using serve::ServeConfig;
using serve::ServeResult;

struct ServeRow {
  const char* runtime = nullptr;
  unsigned procs = 0;
  std::int64_t verify_checksum = 0;
  ServeResult measured;
};

template <class RT>
RT make_runtime(unsigned procs);

template <>
SeqRuntime make_runtime<SeqRuntime>(unsigned) {
  return SeqRuntime(SeqRuntime::Options{});
}

template <>
StwRuntime make_runtime<StwRuntime>(unsigned procs) {
  StwRuntime::Options o;
  o.workers = procs;
  return StwRuntime(o);
}

template <>
LhRuntime make_runtime<LhRuntime>(unsigned procs) {
  LhRuntime::Options o;
  o.workers = procs;
  // Production-shaped knob: collect the global promotion sink once per
  // MB promoted. Without it the sink grows for the whole burst and the
  // steady-state RSS row measures the leak, not the runtime (the
  // localheap row used to sit near 45x its live set here).
  // PARMEM_GC_GLOBAL_THRESHOLD overrides it when set (the runtime
  // itself only consults it while the option is 0), so run_bench.sh's
  // global_gc section can sweep it -- "0" restores the pure sink.
  o.gc_global_threshold =
      config::env().gc_global_threshold.value_or(std::size_t{1} << 20);
  return LhRuntime(o);
}

template <>
HierRuntime make_runtime<HierRuntime>(unsigned procs) {
  HierRuntime::Options o;
  o.workers = procs;
  // Production-shaped knob: bound each request tree's post-join garbage
  // (and exercise the stopped-world all-frames join path on the serve
  // request path, where its soundness fix matters).
  o.gc_join_threshold = std::size_t{1} << 20;
  return HierRuntime(o);
}

template <class RT>
ServeRow run_runtime(unsigned procs, const ServeConfig& base,
                     std::uint64_t verify_requests, double duration_s,
                     double warmup_s) {
  RT rt = make_runtime<RT>(procs);
  ServeRow row;
  row.runtime = RT::kName;
  row.procs = rt.workers();

  // Pass 1: fixed count, no sampling -- the checksum is the product.
  ServeConfig verify = base;
  verify.requests = verify_requests;
  verify.duration_s = 0.0;
  verify.sample_memory = false;
  row.verify_checksum = serve::serve_run(rt, verify).checksum;

  // Pass 2: fixed duration against a fresh runtime, so pass 1's peak
  // memory does not pollute the steady-state measurement.
  RT rt2 = make_runtime<RT>(procs);
  ServeConfig measured = base;
  measured.duration_s = duration_s;
  measured.warmup_s = warmup_s;
  row.measured = serve::serve_run(rt2, measured);
  return row;
}

void print_row(const ServeRow& r) {
  const ServeResult& m = r.measured;
  std::printf(
      "%-9s %5u %5u | %9.0f | %8.1f %8.1f %8.1f %9.1f | %7.1f %7.1f %5.2f | "
      "%6llu\n",
      r.runtime, r.procs, m.lanes, m.throughput_rps,
      static_cast<double>(m.latency.percentile_ns(0.50)) * 1e-3,
      static_cast<double>(m.latency.percentile_ns(0.95)) * 1e-3,
      static_cast<double>(m.latency.percentile_ns(0.99)) * 1e-3,
      static_cast<double>(m.latency.max_ns()) * 1e-3,
      static_cast<double>(m.peak_rss_bytes) / (1024.0 * 1024.0),
      static_cast<double>(m.steady_rss_bytes) / (1024.0 * 1024.0),
      m.frag_ratio,
      static_cast<unsigned long long>(m.stats.gc_count));
}

void json_row(std::FILE* f, const ServeRow& r, bool first) {
  const ServeResult& m = r.measured;
  std::fprintf(
      f,
      "%s\n    \"%s\": {\"procs\": %u, \"lanes\": %u, "
      "\"requests\": %llu, \"seconds\": %.6f, \"throughput_rps\": %.1f, "
      "\"p50_ns\": %llu, \"p95_ns\": %llu, \"p99_ns\": %llu, "
      "\"max_ns\": %llu, \"mean_ns\": %.1f, "
      "\"peak_rss_bytes\": %zu, \"steady_rss_bytes\": %zu, "
      "\"steady_live_bytes\": %zu, \"frag_ratio\": %.3f, "
      "\"verify_checksum\": %lld, \"gc_count\": %llu, \"gc_ns\": %llu, "
      "\"gc_pause_ns\": %llu, \"promotions\": %llu}",
      first ? "" : ",", r.runtime, r.procs, m.lanes,
      static_cast<unsigned long long>(m.requests), m.seconds,
      m.throughput_rps,
      static_cast<unsigned long long>(m.latency.percentile_ns(0.50)),
      static_cast<unsigned long long>(m.latency.percentile_ns(0.95)),
      static_cast<unsigned long long>(m.latency.percentile_ns(0.99)),
      static_cast<unsigned long long>(m.latency.max_ns()),
      m.latency.mean_ns(), m.peak_rss_bytes, m.steady_rss_bytes,
      m.steady_live_bytes, m.frag_ratio,
      static_cast<long long>(r.verify_checksum),
      static_cast<unsigned long long>(m.stats.gc_count),
      static_cast<unsigned long long>(m.stats.gc_ns),
      static_cast<unsigned long long>(m.stats.gc_pause_ns),
      static_cast<unsigned long long>(m.stats.promotions));
}

}  // namespace
}  // namespace parmem::bench

int main(int argc, char** argv) {
  using namespace parmem::bench;
  Options opt = parse_options(argc, argv);

  // Serve-specific flags (parse_options ignores unknown arguments).
  double duration_s = opt.quick ? 1.0 : 5.0;
  double warmup_s = 0.2;
  std::uint64_t verify_requests = opt.quick ? 90 : 600;
  const char* runtime_filter = nullptr;  // --runtime=seq|stw|localheap|hier
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--duration=", 11) == 0) {
      duration_s = std::strtod(a + 11, nullptr);
    } else if (std::strncmp(a, "--warmup=", 9) == 0) {
      warmup_s = std::strtod(a + 9, nullptr);
    } else if (std::strncmp(a, "--requests=", 11) == 0) {
      verify_requests = std::strtoull(a + 11, nullptr, 10);
    } else if (std::strncmp(a, "--runtime=", 10) == 0) {
      runtime_filter = a + 10;
    }
  }
  // One-runtime mode for profiling: scripts/run_bench.sh profile runs
  // the driver once per runtime so each flame graph / trace / stats
  // recording covers exactly one system (the profiler and trace layers
  // are process-wide). Cross-runtime checksum agreement still holds
  // within whatever subset runs.
  auto want = [runtime_filter](const char* name) {
    return runtime_filter == nullptr ||
           std::strcmp(runtime_filter, name) == 0;
  };

  ServeConfig base;
  base.lanes = 0;  // one lane per worker
  base.seed = opt.sizes.seed;

  std::printf(
      "parmem-serve: steady-state serving (P=%u, %.1fs measured after "
      "%.1fs warmup; verify wave = %llu requests)\n\n",
      opt.procs, duration_s, warmup_s,
      static_cast<unsigned long long>(verify_requests));
  std::printf("%-9s %5s %5s | %9s | %8s %8s %8s %9s | %7s %7s %5s | %6s\n",
              "runtime", "P", "lanes", "req/s", "p50us", "p95us", "p99us",
              "maxus", "peakMB", "stdyMB", "frag", "GCs");
  print_rule(104);

  std::vector<ServeRow> rows;
  if (want(parmem::SeqRuntime::kName)) {
    rows.push_back(run_runtime<parmem::SeqRuntime>(1, base, verify_requests,
                                                   duration_s, warmup_s));
    print_row(rows.back());
  }
  if (want(parmem::StwRuntime::kName)) {
    rows.push_back(run_runtime<parmem::StwRuntime>(
        opt.procs, base, verify_requests, duration_s, warmup_s));
    print_row(rows.back());
  }
  if (want(parmem::LhRuntime::kName)) {
    rows.push_back(run_runtime<parmem::LhRuntime>(
        opt.procs, base, verify_requests, duration_s, warmup_s));
    print_row(rows.back());
  }
  if (want(parmem::HierRuntime::kName)) {
    rows.push_back(run_runtime<parmem::HierRuntime>(
        opt.procs, base, verify_requests, duration_s, warmup_s));
    print_row(rows.back());
  }
  if (rows.empty()) {
    std::fprintf(stderr, "unknown --runtime=%s (seq|stw|localheap|hier)\n",
                 runtime_filter);
    return 2;
  }

  // Cross-runtime agreement on the fixed-count wave: same request set,
  // same per-request results, whatever the runtime and lane count.
  int mismatches = 0;
  for (const ServeRow& r : rows) {
    if (r.verify_checksum != rows[0].verify_checksum) {
      std::printf("!! verify checksum mismatch on %s: %lld vs %lld\n",
                  r.runtime, static_cast<long long>(r.verify_checksum),
                  static_cast<long long>(rows[0].verify_checksum));
      ++mismatches;
    }
  }
  std::printf(
      "\ncolumns: req/s post-warmup throughput; p50/p95/p99/max request "
      "latency (microseconds, conservative bucket upper bounds); "
      "peak/stdy RSS; frag = steady RSS / steady live bytes\n");

  if (!opt.json_out.empty()) {
    std::FILE* f = std::fopen(opt.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"procs\": %u,\n  \"duration_s\": %g,\n"
                 "  \"warmup_s\": %g,\n  \"verify_requests\": %llu,\n"
                 "  \"runtimes\": {",
                 opt.procs, duration_s, warmup_s,
                 static_cast<unsigned long long>(verify_requests));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      json_row(f, rows[i], i == 0);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("serve JSON written: %s\n", opt.json_out.c_str());
  }
  if (mismatches != 0) {
    std::printf("!! %d verify checksum mismatch(es)\n", mismatches);
    return 1;
  }
  return 0;
}
