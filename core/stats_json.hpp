// Machine-readable per-run stats export: each runtime instance whose
// Options::stats_json_path (or the PARMEM_STATS_JSON env var) names a
// file appends ONE JSON object line when the runtime is destroyed --
// the configuration that produced the run, counters, memory gauges,
// and per-kind pause-histogram summaries.
// JSON-lines, so a process that builds several runtimes (the serve
// driver runs all four) yields one parseable record per run;
// scripts/perf_diff.py consumes two such files and gates on
// regressions.
//
// The first runtime to export to a given path in a process truncates
// it; later exports append. Pause histograms come from core/trace.hpp,
// whose slots are process-global and cumulative -- in a multi-runtime
// process each record's "pauses" section covers the process SO FAR,
// not just that runtime (counters and gauges are per-instance).
#pragma once

#include <cstdio>
#include <set>
#include <string>

#include "core/stats.hpp"
#include "core/trace.hpp"

namespace parmem::stats_json {

namespace detail {

// Paths already opened (truncated) by this process.
inline std::set<std::string>& opened() {
  static std::set<std::string> s;
  return s;
}

inline void write_hist(std::FILE* f, const char* key, const Histogram& h) {
  std::fprintf(
      f,
      "\"%s\":{\"count\":%llu,\"sum_ns\":%llu,\"p50_ns\":%llu,"
      "\"p95_ns\":%llu,\"p99_ns\":%llu,\"max_ns\":%llu}",
      key, static_cast<unsigned long long>(h.count()),
      static_cast<unsigned long long>(h.sum_ns()),
      static_cast<unsigned long long>(h.percentile_ns(0.50)),
      static_cast<unsigned long long>(h.percentile_ns(0.95)),
      static_cast<unsigned long long>(h.percentile_ns(0.99)),
      static_cast<unsigned long long>(h.max_ns()));
}

}  // namespace detail

// Append one JSON object line for a finished runtime to `path` (not
// empty). `config` is the JSON object of the configuration that
// produced the run (see RuntimeShell). Returns false if the file could
// not be opened (reported on stderr, never fatal -- a broken export
// path must not take down the computation's exit).
inline bool write(const std::string& path, const char* runtime,
                  const std::string& config, const StatsSnapshot& snap) {
  const bool fresh = detail::opened().insert(path).second;
  std::FILE* f = std::fopen(path.c_str(), fresh ? "w" : "a");
  if (f == nullptr) {
    std::fprintf(stderr, "parmem: cannot write stats JSON file %s\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\"runtime\":\"%s\",\"config\":%s,\"counters\":{", runtime,
               config.c_str());
  const char* sep = "";
  for_each_counter([&](const char* key, auto field, auto) {
    std::fprintf(f, "%s\"%s\":%llu", sep, key,
                 static_cast<unsigned long long>(snap.stats.*field));
    sep = ",";
  });
  std::fprintf(f, "},\"memory\":{\"live_bytes\":%llu,\"peak_bytes\":%llu},",
               static_cast<unsigned long long>(snap.live_bytes),
               static_cast<unsigned long long>(snap.peak_bytes));
  const trace::Snapshot tr = trace::snapshot();
  std::fprintf(f, "\"pauses\":{");
  for (unsigned k = 0; k < trace::kKinds; ++k) {
    if (k != 0) {
      std::fprintf(f, ",");
    }
    detail::write_hist(f, trace::kind_name(static_cast<trace::Ev>(k)),
                       tr.by_kind[k]);
  }
  std::fprintf(f,
               "},\"trace\":{\"ring_events\":%llu,\"ring_dropped\":%llu}}\n",
               static_cast<unsigned long long>(tr.ring_events),
               static_cast<unsigned long long>(tr.ring_dropped));
  std::fclose(f);
  return true;
}

}  // namespace parmem::stats_json
