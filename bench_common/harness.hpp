// Shared measurement scaffolding for the figure/ablation drivers:
// wall-clock timing, CLI options, median-of-runs measurement with
// runtime counter deltas, and small table-printing helpers. Everything
// here is kernel-agnostic; the kernels are bench_common/workloads.hpp.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/stats.hpp"

namespace parmem::bench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Problem sizes, uniformly shrunk by --scale / --quick. The per-kernel
// fields are derived from `scale` in parse_options; tests and ablations
// override them directly.
struct Sizes {
  double scale = 1.0;
  std::int64_t seq_n = std::int64_t{1} << 24;  // element count for seq kernels
  std::uint64_t seed = 42;

  std::int64_t msort_n = std::int64_t{1} << 22;       // imperative sort input
  std::int64_t msort_pure_n = std::int64_t{1} << 21;  // pure sort input
  std::int64_t sort_grain = 8192;  // sequential cutoff for the sorts
  std::int64_t seq_grain = 8192;   // elements per task in seq kernels
  std::int64_t fib_n = 30;
  std::int64_t dmm_n = 192;           // dense matrix dimension
  std::int64_t smvm_rows = std::int64_t{1} << 19;  // sparse rows (8 nnz each)
  std::int64_t usp_side = 96;         // BFS grid is usp_side x usp_side
  std::int64_t strassen_n = 128;      // recursive matmul dim (power of two)
  std::int64_t strassen_cutoff = 32;  // strassen base-case dimension
  std::int64_t ray_w = 640;           // raytracer image width
  std::int64_t ray_h = 480;           // raytracer image height
  std::int64_t dedup_n = std::int64_t{1} << 20;   // dedup input elements
  std::int64_t tourney_n = std::int64_t{1} << 22; // tournament leaves (pow2)
  std::int64_t reach_n = std::int64_t{1} << 20;   // reachability vertices

  std::int64_t scaled(std::int64_t base) const {
    auto v = static_cast<std::int64_t>(static_cast<double>(base) * scale);
    return v > 1 ? v : 1;
  }

  // Largest power of two <= bound, never below `floor` (itself a pow2).
  static std::int64_t floor_pow2(std::int64_t bound, std::int64_t floor) {
    std::int64_t v = floor;
    while (v * 2 <= bound) {
      v *= 2;
    }
    return v;
  }

  // Re-derive every per-kernel size from `scale`, keeping each kernel's
  // asymptotic work roughly proportional to it.
  void rescale() {
    auto dim = [&](std::int64_t base, double exponent, std::int64_t floor) {
      auto v = static_cast<std::int64_t>(
          static_cast<double>(base) *
          __builtin_exp2(exponent * __builtin_log2(scale > 0 ? scale : 1e-6)));
      return v > floor ? v : floor;
    };
    seq_n = scaled(std::int64_t{1} << 24);
    msort_n = scaled(std::int64_t{1} << 22);
    msort_pure_n = scaled(std::int64_t{1} << 21);
    // fib's work is exponential in n: shift the BASE n (30) by
    // log2(scale), so repeated rescale() calls are idempotent.
    std::int64_t shift = 0;
    for (double s = scale; s < 0.75 && shift < 20; s *= 2.0) {
      ++shift;
    }
    fib_n = 30 - shift > 8 ? 30 - shift : 8;
    dmm_n = dim(192, 1.0 / 3.0, 8);     // n^3 work
    smvm_rows = scaled(std::int64_t{1} << 19);
    usp_side = dim(96, 1.0 / 3.0, 8);   // ~side^3 work (side^2 x diameter)
    // strassen's split needs a power-of-two dimension: scale by n^3 work,
    // then round down to the nearest power of two (>= 16).
    strassen_n = floor_pow2(dim(128, 1.0 / 3.0, 16), 16);
    ray_w = dim(640, 0.5, 16);          // pixel count ~ scale
    ray_h = dim(480, 0.5, 12);
    dedup_n = scaled(std::int64_t{1} << 20);
    // tourney's tree is a complete binary tree: power-of-two leaves.
    tourney_n = floor_pow2(scaled(std::int64_t{1} << 22), 64);
    reach_n = scaled(std::int64_t{1} << 20);
  }

  bool operator==(const Sizes&) const = default;
};

struct Options {
  unsigned procs = 0;  // 0 resolved to hardware threads in parse_options
  int runs = 3;
  bool quick = false;
  Sizes sizes;
  std::vector<std::string> benches;  // --bench=a,b; empty = all
  std::string json_out;              // write per-runtime JSON sections here

  bool selected(const char* name) const {
    return benches.empty() ||
           std::find(benches.begin(), benches.end(), name) != benches.end();
  }
};

// The whole of `text` as a number, or exit 2 naming `flag`: a malformed
// value must not run as some default.
template <class T>
T parse_number(const char* flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "%s: not a number: '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      std::size_t n = std::strlen(prefix);
      return std::strncmp(a, prefix, n) == 0 ? a + n : nullptr;
    };
    if (const char* v = value("--procs=")) {
      opt.procs = parse_number<unsigned>("--procs", v);
    } else if (const char* v = value("--runs=")) {
      opt.runs = parse_number<int>("--runs", v);
    } else if (const char* v = value("--scale=")) {
      opt.sizes.scale = parse_number<double>("--scale", v);
    } else if (const char* v = value("--seed=")) {
      opt.sizes.seed = parse_number<std::uint64_t>("--seed", v);
    } else if (const char* v = value("--bench=")) {
      for (std::string_view list(v); !list.empty();) {
        const std::size_t comma = std::min(list.find(','), list.size());
        opt.benches.emplace_back(list.substr(0, comma));
        list.remove_prefix(std::min(comma + 1, list.size()));
      }
    } else if (const char* v = value("--json=")) {
      opt.json_out = v;
    } else if (std::strcmp(a, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf(
          "options: --procs=P --runs=R --scale=F --seed=S --bench=a,b "
          "--json=PATH --quick\n");
      std::exit(0);
    }
  }
  if (opt.procs == 0) {
    opt.procs = std::thread::hardware_concurrency();
    if (opt.procs == 0) {
      opt.procs = 1;
    }
  }
  if (opt.quick) {
    opt.sizes.scale *= 0.05;
    opt.runs = 1;
  }
  opt.sizes.rescale();
  if (opt.runs < 1) {
    opt.runs = 1;
  }
  return opt;
}

// Exits 2, listing the names in `rows` (anything with a `name`), when
// --bench names something that is not among them: a misspelt kernel must
// not pass as an empty run.
template <class Rows>
void require_known_benches(const Options& opt, const Rows& rows) {
  for (const std::string& b : opt.benches) {
    if (std::none_of(std::begin(rows), std::end(rows),
                     [&](const auto& r) { return b == r.name; })) {
      std::fprintf(stderr, "--bench: unknown name '%s'; known:", b.c_str());
      for (const auto& r : rows) {
        std::fprintf(stderr, " %s", r.name);
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }
}

// One measured configuration: the median-time run's wall time, counter
// deltas and checksum; peak_bytes is the runtime's lifetime high-water
// mark (chunk pools never forget earlier runs).
struct Measurement {
  double seconds = 0.0;
  std::int64_t checksum = 0;
  Stats stats;
  std::size_t peak_bytes = 0;

  // Fraction of PROCESSOR time spent in GC. gc_ns is the CPU time of
  // every collecting thread (concurrent leaf collections and every
  // evacuation-team member add up), so the denominator for a P-proc
  // run is P * wall.
  double gc_fraction(unsigned procs = 1) const {
    return seconds > 0.0
               ? (static_cast<double>(stats.gc_ns) * 1e-9) /
                     (static_cast<double>(procs) * seconds)
               : 0.0;
  }
};

// Runs `fn(rt, sizes)` `runs` times; reports the median time. `fn`
// must return a value exposing `.checksum` (cross-runtime agreement is
// checked by the figure drivers).
template <class RT, class Fn>
Measurement measure(RT& rt, const Sizes& sizes, int runs, Fn&& fn) {
  struct Run {
    double seconds;
    std::int64_t checksum;
    Stats stats;
  };
  std::vector<Run> rs;
  rs.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    Stats before = rt.stats();
    Timer t;
    auto out = fn(rt, sizes);
    rs.push_back(Run{t.seconds(), out.checksum, rt.stats() - before});
  }
  std::sort(rs.begin(), rs.end(),
            [](const Run& a, const Run& b) { return a.seconds < b.seconds; });
  const Run& median = rs[rs.size() / 2];
  Measurement m;
  m.seconds = median.seconds;
  m.checksum = median.checksum;
  m.stats = median.stats;
  m.peak_bytes = rt.peak_bytes();
  return m;
}

// One measured (runtime, kernel, P) configuration: a row of the
// per-runtime JSON that scripts/perf_diff.py reads. An ablation row also
// names the setting it ran under ("gc_min_budget=1MiB"); a figure row
// leaves it empty.
struct RuntimeRow {
  const char* runtime;
  const char* name;
  unsigned procs;
  Measurement m;
  std::string label;
};

// Writes `{"procs":P,"scale":S,"runtimes":{"seq":[{...},...],...}}`, one
// section per runtime in the order the runtimes first appear in `rows`;
// scripts/run_bench.sh records it as the BENCH_runtimes.json baseline.
inline bool write_runtime_json(const std::string& path, unsigned procs,
                               const Sizes& sizes,
                               const std::vector<RuntimeRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"procs\": %u,\n  \"scale\": %g,\n  \"runtimes\": {",
               procs, sizes.scale);
  std::vector<const char*> runtimes;
  for (const RuntimeRow& r : rows) {
    if (std::none_of(runtimes.begin(), runtimes.end(), [&](const char* rt) {
          return std::strcmp(rt, r.runtime) == 0;
        })) {
      runtimes.push_back(r.runtime);
    }
  }
  for (const char* rt : runtimes) {
    std::fprintf(f, "%s\n    \"%s\": [", rt == runtimes.front() ? "" : ",",
                 rt);
    bool first = true;
    for (const RuntimeRow& r : rows) {
      if (std::strcmp(r.runtime, rt) != 0) {
        continue;
      }
      std::fprintf(f, "%s\n      {\"name\": \"%s\", ", first ? "" : ",",
                   r.name);
      if (!r.label.empty()) {
        std::fprintf(f, "\"setting\": \"%s\", ", r.label.c_str());
      }
      std::fprintf(
          f,
          "\"procs\": %u, \"seconds\": %.6f, "
          "\"checksum\": %lld, \"peak_bytes\": %zu, \"gc_count\": %llu, "
          "\"gc_ns\": %llu, \"promotions\": %llu, \"promoted_bytes\": %llu}",
          r.procs, r.m.seconds,
          static_cast<long long>(r.m.checksum), r.m.peak_bytes,
          static_cast<unsigned long long>(r.m.stats.gc_count),
          static_cast<unsigned long long>(r.m.stats.gc_ns),
          static_cast<unsigned long long>(r.m.stats.promotions),
          static_cast<unsigned long long>(r.m.stats.promoted_bytes));
      first = false;
    }
    std::fprintf(f, "\n    ]");
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline std::string fmt_mb(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return std::string(buf);
}

inline std::string fmt_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * fraction);
  return std::string(buf);
}

}  // namespace parmem::bench
