// The paper's ablations (Sections 4.4 and 5) from one set of measurements,
// all on hierarchical heaps:
//   promotion    usp-tree's visitation writes all promote into one ancestor
//                heap under a path lock, so its speedup collapses; usp (no
//                promotion) and multi-usp-tree (disjoint targets) recover
//   finegrained  the Section 5 future work: coarse path locking against
//                fine-grained claims, with usp and msort as controls
//   gc-budget    the leaf-GC minimum budget: GC time and copying against
//                peak memory (kept = collections that found >= 3/4 live)
//   grain        the sequential cutoff, and imperative msort against the
//                purely functional msort-pure at every grain (Section 2)
//   internal-gc  internal-heap collection of busy promoted-into heaps;
//                dedup and reachability promote nothing and are controls
//   join-gc      join-time subtree collection of the quiesced siblings
//
// A sweep varies one setting over labelled values across its kernels. Each
// configuration (kernel, options, sizes, P) runs once per invocation,
// however many tables print it, and every row's checksum must equal its
// kernel's first row on the same input; a mismatch is printed and the exit
// status is 1, as it is when an internal-gc invariant fails.
//
// Run with --procs=P --runs=R --scale=F --bench=a,b --json=PATH --quick.
// --bench names sweeps, kernels or both: a list naming no sweep selects
// every sweep, and one naming no kernel every kernel. --json writes every
// row with its setting label in the figures driver's schema
// (scripts/run_bench.sh records it as BENCH_ablations.json).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench_common/harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"

namespace parmem::bench {
namespace {

struct Kernel {
  const char* name;
  KernelOut (*fn)(HierRuntime&, const Sizes&);
  bool promotes;  // under hier; the internal-gc controls do not
};

const Kernel kKernels[] = {
    {"usp", &bench_usp<HierRuntime>, false},
    {"usp-tree", &bench_usp_tree<HierRuntime>, true},
    {"multi-usp-tree", &bench_multi_usp_tree<HierRuntime>, true},
    {"msort", &bench_msort<HierRuntime>, false},
    {"msort-pure", &bench_msort_pure<HierRuntime>, false},
    {"map", &bench_map<HierRuntime>, false},
    {"tabulate", &bench_tabulate<HierRuntime>, false},
    {"dedup", &bench_dedup<HierRuntime>, false},
    {"reachability", &bench_reachability<HierRuntime>, false},
};

const Kernel& kernel(const char* name) {
  return *std::find_if(std::begin(kKernels), std::end(kKernels),
                       [name](const Kernel& k) {
                         return std::strcmp(k.name, name) == 0;
                       });
}

// The setting a sweep varies: its name in row labels, and how a value
// applies to the runtime options or the sizes. `team` is the evacuation
// team a value asks for, or 0.
struct Setting {
  const char* name;
  void (*apply)(std::size_t value, unsigned team, HierRuntime::Options& ro,
                Sizes& z);
};

const Setting kPromotion{
    "promotion", [](std::size_t v, unsigned, HierRuntime::Options& ro,
                    Sizes&) {
      ro.promotion =
          v != 0 ? PromotionMode::kFineGrained : PromotionMode::kCoarseLocking;
    }};
const Setting kMinBudget{
    "gc_min_budget",
    [](std::size_t v, unsigned, HierRuntime::Options& ro, Sizes&) {
      ro.gc_min_budget = v;
    }};
const Setting kGrain{
    "grain", [](std::size_t v, unsigned, HierRuntime::Options&, Sizes& z) {
      z.sort_grain = static_cast<std::int64_t>(v);
      z.seq_grain = static_cast<std::int64_t>(v);
    }};
const Setting kInternal{
    "gc_internal_threshold",
    [](std::size_t v, unsigned team, HierRuntime::Options& ro, Sizes&) {
      ro.gc_internal_threshold = v;
      ro.gc_parallel_team = team;
    }};
// The team value collects the same subtrees with up to gc_parallel_team
// workers: the driver plus the mutators its stop parked, so the team is
// only as large as the parked set at each join.
const Setting kJoin{
    "gc_join_threshold",
    [](std::size_t v, unsigned team, HierRuntime::Options& ro, Sizes&) {
      ro.gc_join_threshold = v;
      ro.gc_parallel_team = team;
    }};

// One labelled value of a setting; `team` adds an evacuation team of P
// workers (at least 2).
struct Value {
  const char* label;
  std::size_t n;
  bool team = false;
};

class View;

struct Sweep {
  const char* name;  // what --bench calls it
  const Setting* setting;
  std::vector<Value> values;
  std::vector<const char*> kernels;
  bool at_one;  // also measured at P=1, for T1 and speedup columns
  void (*input)(Sizes& z, const Options& opt);  // nullptr: the given sizes
  const char* title;            // printf format taking P
  bool (*table)(const View&);   // header and rows; false fails the run
  const char* footer;
};

// One measured configuration. Every one starts from default Options, and
// a setting changes only the fields compared in same_run.
struct Config {
  const Kernel* kernel;
  HierRuntime::Options ro;
  Sizes input;  // the sweep's sizes: rows on one input agree on checksums
  Sizes sizes;  // as run, after the setting
  std::string label;

  bool same_run(const Config& o) const {
    return kernel == o.kernel && ro.workers == o.ro.workers &&
           ro.promotion == o.ro.promotion &&
           ro.gc_min_budget == o.ro.gc_min_budget &&
           ro.gc_join_threshold == o.ro.gc_join_threshold &&
           ro.gc_internal_threshold == o.ro.gc_internal_threshold &&
           ro.gc_parallel_team == o.ro.gc_parallel_team && sizes == o.sizes;
  }
};

Config config_of(const Sweep& s, const Value& v, const Kernel& k,
                 unsigned procs, const Options& opt) {
  Config c{&k, {}, opt.sizes, opt.sizes,
           std::string(s.setting->name) + "=" + v.label};
  if (s.input != nullptr) {
    s.input(c.input, opt);
  }
  c.sizes = c.input;
  c.ro.workers = procs;
  s.setting->apply(v.n, v.team ? std::max(opt.procs, 2u) : 0, c.ro, c.sizes);
  return c;
}

// Every measured row, index-aligned with the configuration it ran.
struct Results {
  std::vector<Config> configs;
  std::vector<RuntimeRow> rows;

  std::size_t index(const Config& c) const {
    return static_cast<std::size_t>(
        std::find_if(configs.begin(), configs.end(),
                     [&c](const Config& o) { return o.same_run(c); }) -
        configs.begin());
  }
};

// One sweep's table: its selected kernels and their rows.
class View {
 public:
  View(const Sweep& s, std::vector<const Kernel*> kernels, const Options& opt,
       const Results& results)
      : sweep(s), kernels(std::move(kernels)), procs(opt.procs), opt_(opt),
        results_(results) {}

  // The row of `k` under `v` at `p` workers (P when omitted), or nullptr
  // for a kernel --bench did not select.
  const Measurement* find(const Value& v, const char* k, unsigned p = 0) const {
    if (std::none_of(kernels.begin(), kernels.end(), [k](const Kernel* s) {
          return std::strcmp(s->name, k) == 0;
        })) {
      return nullptr;
    }
    const Config c = config_of(sweep, v, kernel(k), p != 0 ? p : procs, opt_);
    return &results_.rows[results_.index(c)].m;
  }
  const Measurement& at(const Value& v, const Kernel& k, unsigned p = 0) const {
    return *find(v, k.name, p);
  }

  const Sweep& sweep;
  const std::vector<const Kernel*> kernels;
  const unsigned procs;

 private:
  const Options& opt_;
  const Results& results_;
};

double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

bool promotion_table(const View& t) {
  std::printf("%-15s %9s %9s %7s %12s %10s\n", "benchmark", "T1(s)",
              "Tp(s)", "spd", "promotions", "promoMB");
  print_rule(70);
  for (const Kernel* k : t.kernels) {
    const Measurement& m1 = t.at(t.sweep.values[0], *k, 1);
    const Measurement& mp = t.at(t.sweep.values[0], *k);
    std::printf("%-15s %9.3f %9.3f %6.2fx %12llu %10.2f\n", k->name,
                m1.seconds, mp.seconds, m1.seconds / mp.seconds,
                static_cast<unsigned long long>(mp.stats.promotions),
                mib(mp.stats.promoted_bytes));
  }
  return true;
}

bool finegrained_table(const View& t) {
  std::printf("%-15s %-7s %9s %9s %7s %12s %10s %10s\n", "benchmark", "mode",
              "T1(s)", "Tp(s)", "spd", "promotions", "promoMB", "conflicts");
  print_rule(88);
  for (const Kernel* k : t.kernels) {
    for (const Value& v : t.sweep.values) {
      const Measurement& m1 = t.at(v, *k, 1);
      const Measurement& mp = t.at(v, *k);
      std::printf(
          "%-15s %-7s %9.3f %9.3f %6.2fx %12llu %10.2f %10llu\n", k->name,
          v.label, m1.seconds, mp.seconds, m1.seconds / mp.seconds,
          static_cast<unsigned long long>(mp.stats.promotions),
          mib(mp.stats.promoted_bytes),
          static_cast<unsigned long long>(mp.stats.promo_claim_conflicts));
    }
  }
  return true;
}

bool gc_budget_table(const View& t) {
  std::printf("%-10s | %12s | %9s | %7s | %8s | %6s | %10s | %9s\n", "bench",
              "min budget", "time(s)", "GC%", "GCs", "kept", "copiedMB",
              "peakMB");
  print_rule(90);
  for (const Kernel* k : t.kernels) {
    for (const Value& v : t.sweep.values) {
      const Measurement& m = t.at(v, *k);
      std::printf(
          "%-10s | %9zuKiB | %9.3f | %6.1f%% | %8llu | %6llu | %10.1f | "
          "%9.1f\n",
          k->name, v.n >> 10, m.seconds, 100.0 * m.gc_fraction(t.procs),
          static_cast<unsigned long long>(m.stats.gc_count),
          static_cast<unsigned long long>(m.stats.gc_kept),
          mib(m.stats.gc_bytes_copied), mib(m.peak_bytes));
    }
  }
  return true;
}

// One row per grain, one column per kernel; a kernel --bench did not
// select prints "--".
bool grain_table(const View& t) {
  std::printf("%-10s | %10s | %10s | %10s | %8s\n", "grain", "msort(s)",
              "msort-pure", "tabulate", "imp/pure");
  print_rule(62);
  for (const Value& v : t.sweep.values) {
    const Measurement* imp = t.find(v, "msort");
    const Measurement* pure = t.find(v, "msort-pure");
    std::printf("%-10zu", v.n);
    for (const Measurement* m : {imp, pure, t.find(v, "tabulate")}) {
      if (m != nullptr) {
        std::printf(" | %10.3f", m->seconds);
      } else {
        std::printf(" | %10s", "--");
      }
    }
    if (imp != nullptr && pure != nullptr) {
      std::printf(" | %7.2fx\n", pure->seconds / imp->seconds);
    } else {
      std::printf(" | %8s\n", "--");
    }
  }
  return true;
}

// The footer's claims are enforced, not just printed: internal collection
// never promotes, and the zero-promotion controls never trigger it.
bool internal_gc_table(const View& t) {
  std::printf("%-15s %-11s %9s %9s %8s %8s %9s %8s\n", "kernel", "policy",
              "Tp(s)", "peakMB", "promoMB", "igcs", "igcMB", "gc%");
  print_rule(84);
  bool checksums_ok = true;
  bool invariants_ok = true;
  int promoting = 0;
  int reduced = 0;
  for (const Kernel* k : t.kernels) {
    const Measurement& off = t.at(t.sweep.values[0], *k);
    promoting += k->promotes ? 1 : 0;
    for (const Value& v : t.sweep.values) {
      const Measurement& m = t.at(v, *k);
      checksums_ok = checksums_ok && m.checksum == off.checksum;
      invariants_ok = invariants_ok &&
                      m.stats.promoted_bytes == off.stats.promoted_bytes &&
                      (k->promotes || m.stats.internal_gc_count == 0);
      if (v.n != 0 && !v.team && k->promotes && m.peak_bytes < off.peak_bytes) {
        ++reduced;
      }
      std::printf("%-15s %-11s %9.3f %9s %8s %8llu %9.2f %8s\n", k->name,
                  v.label, m.seconds, fmt_mb(m.peak_bytes).c_str(),
                  fmt_mb(m.stats.promoted_bytes).c_str(),
                  static_cast<unsigned long long>(m.stats.internal_gc_count),
                  mib(m.stats.internal_gc_bytes),
                  fmt_pct(m.gc_fraction(t.procs)).c_str());
    }
    print_rule(84);
  }
  std::printf(
      "\nchecksums across policies: %s\n"
      "promotion/control invariants: %s\n"
      "promoting kernels with peak reduction (threshold vs off): %d of %d\n",
      checksums_ok ? "IDENTICAL" : "MISMATCH",
      invariants_ok ? "HELD" : "VIOLATED", reduced, promoting);
  return checksums_ok && invariants_ok;
}

bool join_gc_table(const View& t) {
  std::printf("%-10s %9s %10s %8s %10s\n", "join-gc", "Tp(s)", "peakMB",
              "gcs", "gc%");
  print_rule(52);
  for (const Kernel* k : t.kernels) {
    for (const Value& v : t.sweep.values) {
      const Measurement& m = t.at(v, *k);
      std::printf("%-10s %9.3f %10s %8llu %10s\n", v.label, m.seconds,
                  fmt_mb(m.peak_bytes).c_str(),
                  static_cast<unsigned long long>(m.stats.gc_count),
                  fmt_pct(m.gc_fraction(t.procs)).c_str());
    }
  }
  return true;
}

const std::vector<Value> kThresholds = {
    {"off", 0},
    {"64KiB", std::size_t{1} << 16},
    {"64KiB-team", std::size_t{1} << 16, true},
};

const Sweep kSweeps[] = {
    {"promotion", &kPromotion, {{"coarse", 0}},
     {"usp", "usp-tree", "multi-usp-tree"}, true, nullptr,
     "Ablation: promotion path-locking serialization (P=%u)\n\n",
     &promotion_table,
     "\nexpected shape: usp scales; usp-tree's speedup collapses "
     "toward (or below) 1 because every visitation promotes to the "
     "same heap under a path lock; multi-usp-tree recovers parallelism "
     "because instances promote into disjoint heaps (Section 4.4)\n"},
    {"finegrained", &kPromotion, {{"coarse", 0}, {"fine", 1}},
     {"usp", "usp-tree", "multi-usp-tree", "msort"}, true, nullptr,
     "Ablation: fine-grained promotion (Section 5 future work) (P=%u)\n\n",
     &finegrained_table,
     "\nexpected shape: usp-tree under `coarse` serializes (speedup ~1 or "
     "below); under `fine` concurrent promotions to the root heap overlap "
     "and the speedup recovers; usp and msort perform no promotions and "
     "are mode-insensitive; conflicts stay near zero because usp-tree's "
     "promotions are disjoint (Section 5)\n"},
    // The trigger is max(min_budget, growth * estimate) (see
    // Heap::join_children); msort-pure never keeps a heap, and map's
    // merged heaps come out mostly live.
    {"gc-budget", &kMinBudget,
     {{"256KiB", std::size_t{256} << 10}, {"1MiB", std::size_t{1} << 20},
      {"4MiB", std::size_t{4} << 20}, {"16MiB", std::size_t{16} << 20},
      {"64MiB", std::size_t{64} << 20}},
     {"msort-pure", "map"}, false, nullptr,
     "Ablation: leaf-GC budget (msort-pure and map, hier, P=%u)\n\n",
     &gc_budget_table,
     "\nexpected shape: time and copied bytes fall as the budget "
     "grows, while peak memory rises -- the classic semispace "
     "time/space trade-off, applied per leaf heap\n"},
    // Equal sort inputs, so the imperative/pure ratio is meaningful.
    {"grain", &kGrain,
     {{"512", 512}, {"2048", 2048}, {"8192", 8192}, {"32768", 32768},
      {"131072", 131072}},
     {"msort", "msort-pure", "tabulate"}, false,
     [](Sizes& z, const Options&) { z.msort_pure_n = z.msort_n; },
     "Ablation: GRAIN sensitivity on hierarchical heaps (P=%u)\n\n",
     &grain_table,
     "\nexpected shape: a sweet spot at mid grains (too small => "
     "fork overhead; too large => no parallelism), and imperative "
     "msort consistently faster than msort-pure (up to ~2x, Section "
     "2)\n"},
    // The signal is root-heap garbage ~ cells * object size: outside
    // --quick the grid stays large enough that it dominates the transient
    // leaf footprint.
    {"internal-gc", &kInternal, kThresholds,
     {"usp-tree", "multi-usp-tree", "dedup", "reachability"}, false,
     [](Sizes& z, const Options& opt) {
       if (!opt.quick && z.usp_side < 112) {
         z.usp_side = 112;
       }
     },
     "Ablation: internal-heap collection (gc_internal_threshold), P=%u\n"
     "(usp-tree rows promote into busy internal heaps; dedup and\n"
     " reachability promote nothing under hier and are the controls)\n\n",
     &internal_gc_table,
     "expected shape: the usp-tree rows trade internal-GC work for a\n"
     "lower peak (the busy root/branch heaps are collected mid-run\n"
     "instead of accumulating promoted masters and merged stale\n"
     "originals); the control rows run zero internal collections and\n"
     "match the off rows; promoted bytes are identical across policies\n"
     "(internal collection never promotes)\n"},
    {"join-gc", &kJoin, kThresholds, {"usp-tree"}, false, nullptr,
     "Ablation: join-time subtree collection (usp-tree kernel, P=%u)\n\n",
     &join_gc_table,
     "\nexpected shape: join-time collection trades GC work for lower "
     "peak occupancy on promotion-heavy joins, and the team row only "
     "wins once subtrees are large enough to amortize its packet and "
     "termination overhead\n"},
};

// Whether --bench selects `name` among `named` (a table of things with a
// `name`): a list naming none of them selects them all.
template <class Named>
bool picked(const Options& opt, const char* name, const Named& named) {
  const bool any = std::any_of(
      std::begin(named), std::end(named), [&opt](const auto& n) {
        return std::find(opt.benches.begin(), opt.benches.end(), n.name) !=
               opt.benches.end();
      });
  return !any || opt.selected(name);
}

}  // namespace
}  // namespace parmem::bench

int main(int argc, char** argv) {
  using namespace parmem::bench;
  const Options opt = parse_options(argc, argv);
  struct Named {
    const char* name;
  };
  std::vector<Named> known;
  for (const Sweep& s : kSweeps) {
    known.push_back({s.name});
  }
  for (const Kernel& k : kKernels) {
    known.push_back({k.name});
  }
  require_known_benches(opt, known);

  Results results;
  std::vector<View> views;
  for (const Sweep& s : kSweeps) {
    std::vector<const Kernel*> kernels;
    for (const char* name : s.kernels) {
      if (picked(opt, name, kKernels)) {
        kernels.push_back(&kernel(name));
      }
    }
    if (!picked(opt, s.name, kSweeps) || kernels.empty()) {
      continue;
    }
    std::vector<unsigned> ps{opt.procs};
    if (s.at_one && opt.procs > 1) {
      ps.insert(ps.begin(), 1);
    }
    for (const Kernel* k : kernels) {
      for (const Value& v : s.values) {
        for (const unsigned p : ps) {
          Config c = config_of(s, v, *k, p, opt);
          if (results.index(c) == results.configs.size()) {
            results.configs.push_back(std::move(c));
          }
        }
      }
    }
    views.emplace_back(s, std::move(kernels), opt, results);
  }

  int mismatches = 0;
  for (const Config& c : results.configs) {
    parmem::HierRuntime rt(c.ro);
    results.rows.push_back({parmem::HierRuntime::kName, c.kernel->name,
                            c.ro.workers,
                            measure(rt, c.sizes, opt.runs, c.kernel->fn),
                            c.label});
    const RuntimeRow& row = results.rows.back();
    const RuntimeRow& first = results.rows[static_cast<std::size_t>(
        std::find_if(results.configs.begin(), results.configs.end(),
                     [&c](const Config& o) {
                       return o.kernel == c.kernel && o.input == c.input;
                     }) -
        results.configs.begin())];
    if (row.m.checksum != first.m.checksum) {
      std::printf("!! checksum mismatch on %s/P%u/%s: %lld vs %s's %lld\n",
                  row.name, row.procs, row.label.c_str(),
                  static_cast<long long>(row.m.checksum), first.label.c_str(),
                  static_cast<long long>(first.m.checksum));
      ++mismatches;
    }
  }

  bool held = true;
  for (const View& v : views) {
    std::printf(v.sweep.title, opt.procs);
    held = v.sweep.table(v) && held;
    std::printf("%s\n", v.sweep.footer);
  }

  if (!opt.json_out.empty()) {
    if (!write_runtime_json(opt.json_out, opt.procs, opt.sizes,
                            results.rows)) {
      return 2;
    }
    std::printf("per-runtime JSON written: %s\n", opt.json_out.c_str());
  }
  if (mismatches != 0) {
    std::printf("!! %d checksum mismatch(es)\n", mismatches);
  }
  return mismatches == 0 && held ? 0 : 1;
}
