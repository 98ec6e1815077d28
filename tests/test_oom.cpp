// Bounded-memory operation: hard heap budgets, the emergency-collection
// cascade, and deterministic allocation-fault injection
// (core/failpoint.hpp), across all four runtimes.
//
// The contract under test: with any budget and any injected fault
// schedule, a run either completes with the exact unstressed checksum
// or raises a clean parmem::OutOfMemory -- never a crash, a hang, a
// stranded kBusy forwarding word, or a leak (the ASan CI row runs this
// whole file; the test_main watchdog catches hangs).
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench_common/workloads.hpp"
#include "core/config.hpp"
#include "core/failpoint.hpp"
#include "core/hier_runtime.hpp"
#include "core/trace.hpp"
#include "runtimes/localheap_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"
#include "tests/test_util.hpp"

namespace {

using namespace parmem;
using namespace parmem::bench;

// Small enough that a budget sweep over 4 runtimes x 4 budgets stays
// well under a second; big enough to need several chunks.
Sizes oom_sizes() {
  Sizes z;
  z.scale = 0.0003;
  z.seq_n = 1600;
  z.seq_grain = 256;
  z.sort_grain = 128;
  z.strassen_n = 16;
  z.strassen_cutoff = 8;
  z.ray_w = 32;
  z.ray_h = 24;
  z.dedup_n = 700;
  z.tourney_n = 512;
  z.reach_n = 900;
  z.usp_side = 18;
  return z;
}

template <class RT>
typename RT::Options oom_options(unsigned workers, std::size_t budget,
                                 const std::string& faults) {
  typename RT::Options o;
  o.workers = workers;
  o.heap_budget_bytes = budget;
  o.failpoints = faults;
  return o;
}

// Run `fn` under a budget and/or fault spec. Returns {completed,
// checksum}; a parmem::OutOfMemory is the accepted failure and
// anything else aborts the test. Disarms the failpoint registry
// afterwards so runs are independent.
template <class RT>
std::pair<bool, std::int64_t> run_bounded(KernelOut (*fn)(RT&, const Sizes&),
                                          unsigned workers,
                                          std::size_t budget,
                                          const std::string& faults,
                                          const Sizes& z) {
  bool completed = true;
  std::int64_t sum = 0;
  {
    RT rt(oom_options<RT>(workers, budget, faults));
    try {
      sum = fn(rt, z).checksum;
    } catch (const OutOfMemory&) {
      completed = false;
    }
  }
  failpoint::Registry::instance().reset();
  return {completed, sum};
}

// ---- typed exception --------------------------------------------------------

PARMEM_TEST(oom_exception_carries_site_and_stats) {
  const Sizes z = oom_sizes();
  SeqRuntime::Options o;
  // One minimum-size chunk: the kernel's live set alone outgrows this,
  // so not even the emergency cascade can make it fit.
  o.heap_budget_bytes = 4 << 10;
  SeqRuntime rt(o);
  bool threw = false;
  try {
    (void)bench_dedup(rt, z);
  } catch (const OutOfMemory& e) {
    threw = true;
    CHECK(std::string(e.site()) == "chunk_alloc");
    CHECK_EQ(e.budget_bytes(), std::size_t{4} << 10);
    CHECK(e.requested_bytes() > 0);
    CHECK(e.live_bytes() + e.requested_bytes() > e.budget_bytes());
    CHECK(std::string(e.what()).find("chunk_alloc") != std::string::npos);
    CHECK(std::string(e.what()).find("budget=4096") != std::string::npos);
    // Typed OOM still lands in pre-existing bad_alloc handlers.
    const std::bad_alloc& base = e;
    (void)base;
  }
  CHECK(threw);
}

// ---- spec parsing and validation -------------------------------------------

PARMEM_TEST(oom_failpoint_spec_parsing) {
  auto ok = [](const std::string& s) {
    std::string err;
    bool r = failpoint::parse_spec(s, &failpoint::Registry::instance(), &err);
    failpoint::Registry::instance().reset();
    return r;
  };
  CHECK(ok("chunk_alloc=fail@3"));
  CHECK(ok("packet_alloc=every(2);promote_copy=prob(0.5,42)"));
  CHECK(ok("chunk_alloc=fail@1,packet_alloc=fail@2"));
  CHECK(ok(""));  // empty = nothing armed
  CHECK(!ok("nosite=fail@1"));
  CHECK(!ok("chunk_alloc=fail@"));
  CHECK(!ok("chunk_alloc=fail@0"));
  CHECK(!ok("chunk_alloc=every(0)"));
  CHECK(!ok("chunk_alloc=prob(2.0,1)"));
  CHECK(!ok("chunk_alloc=prob(0.5)"));
  CHECK(!ok("chunk_alloc=wat"));
  CHECK(!ok("chunk_alloc"));
  // All-or-nothing: one bad clause must not leave earlier ones armed.
  CHECK(!ok("chunk_alloc=fail@1;bogus"));
  CHECK(!failpoint::Registry::instance().armed());

  std::size_t b = 0;
  CHECK(config::parse_size_spec("768M", &b) && b == (std::size_t{768} << 20));
  CHECK(config::parse_size_spec("12K", &b) && b == (std::size_t{12} << 10));
  CHECK(config::parse_size_spec("2G", &b) && b == (std::size_t{2} << 30));
  CHECK(config::parse_size_spec("0", &b) && b == 0);
  CHECK(config::parse_size_spec("123456", &b) && b == 123456);
  CHECK(!config::parse_size_spec("", &b));
  CHECK(!config::parse_size_spec("12X", &b));
  CHECK(!config::parse_size_spec("M", &b));
  CHECK(!config::parse_size_spec("12MB", &b));
  CHECK(!config::parse_size_spec(nullptr, &b));
  CHECK(!config::parse_size_spec("-1", &b));
  CHECK(!config::parse_size_spec(" 5", &b));
  CHECK(!config::parse_size_spec("99999999999999999999", &b));
  CHECK(!config::parse_size_spec("17179869184G", &b));  // 2^64 bytes
}

PARMEM_TEST(oom_failpoint_trigger_schedules) {
  using failpoint::Site;
  auto& reg = failpoint::Registry::instance();
  {
    // fail@N is one-shot: exactly the Nth hit fires.
    failpoint::ScopedFailpoints fp("chunk_alloc=fail@3");
    int fired = 0, fired_at = 0;
    for (int i = 1; i <= 8; ++i) {
      if (failpoint::triggered(Site::kChunkAlloc)) {
        ++fired;
        fired_at = i;
      }
    }
    CHECK_EQ(fired, 1);
    CHECK_EQ(fired_at, 3);
  }
  {
    // every(N) is periodic: hits N, 2N, 3N...
    failpoint::ScopedFailpoints fp("packet_alloc=every(2)");
    int fired = 0;
    for (int i = 1; i <= 8; ++i) {
      bool t = failpoint::triggered(Site::kPacketAlloc);
      CHECK_EQ(t, i % 2 == 0);
      fired += t;
    }
    CHECK_EQ(fired, 4);
  }
  {
    // prob(p, seed) is deterministic: same seed, same schedule.
    std::vector<bool> a, b;
    for (std::vector<bool>* out : {&a, &b}) {
      failpoint::ScopedFailpoints fp("promote_copy=prob(0.5,12345)");
      for (int i = 0; i < 64; ++i) {
        out->push_back(failpoint::triggered(Site::kPromoteCopy));
      }
    }
    CHECK(a == b);
    int fired = 0;
    for (bool t : a) {
      fired += t;
    }
    CHECK(fired > 8 && fired < 56);  // roughly half, not degenerate
  }
  // Collector context is exempt even when armed.
  {
    failpoint::ScopedFailpoints fp("chunk_alloc=every(1)");
    failpoint::GcAllocScope gc;
    CHECK(failpoint::triggered(Site::kChunkAlloc));  // triggered() is raw...
    CHECK(failpoint::gc_exempt());  // ...the exemption is the callers' gate
  }
  CHECK(!reg.armed());  // ScopedFailpoints disarms on exit
}

// ---- budget sweep matrix ----------------------------------------------------

template <class RT>
void budget_sweep(KernelOut (*fn)(RT&, const Sizes&), const Sizes& z,
                  std::int64_t ref) {
  // Measure this runtime's own peak, unbudgeted.
  std::size_t peak;
  {
    RT rt(oom_options<RT>(1, 0, ""));
    CHECK_EQ(fn(rt, z).checksum, ref);
    peak = rt.peak_bytes();
  }
  CHECK(peak > 0);
  // Generous headroom must succeed outright (the budget is never hit:
  // single-worker reruns peak where the measuring run peaked).
  {
    auto [completed, sum] =
        run_bounded<RT>(fn, 1, peak + peak / 2, "", z);
    CHECK(completed);
    CHECK_EQ(sum, ref);
  }
  // At and below peak: correct completion (the emergency cascade made
  // it fit) or clean OutOfMemory -- nothing else.
  for (double frac : {1.0, 0.75, 0.5}) {
    std::size_t budget = static_cast<std::size_t>(
        static_cast<double>(peak) * frac);
    for (unsigned workers : {1u, 2u}) {
      auto [completed, sum] = run_bounded<RT>(fn, workers, budget, "", z);
      if (completed) {
        CHECK_EQ(sum, ref);
      }
    }
  }
}

PARMEM_TEST(oom_budget_sweep_matrix) {
  const Sizes z = oom_sizes();
  SeqRuntime plain;
  // One pure kernel (fork-tree allocation) and one imperative,
  // promoting kernel (exercises budgeted promotion paths too).
  const std::int64_t ref_strassen = bench_strassen(plain, z).checksum;
  const std::int64_t ref_dedup = bench_dedup(plain, z).checksum;
  budget_sweep<SeqRuntime>(&bench_strassen<SeqRuntime>, z, ref_strassen);
  budget_sweep<StwRuntime>(&bench_strassen<StwRuntime>, z, ref_strassen);
  budget_sweep<LhRuntime>(&bench_strassen<LhRuntime>, z, ref_strassen);
  budget_sweep<HierRuntime>(&bench_strassen<HierRuntime>, z, ref_strassen);
  budget_sweep<SeqRuntime>(&bench_dedup<SeqRuntime>, z, ref_dedup);
  budget_sweep<StwRuntime>(&bench_dedup<StwRuntime>, z, ref_dedup);
  budget_sweep<LhRuntime>(&bench_dedup<LhRuntime>, z, ref_dedup);
  budget_sweep<HierRuntime>(&bench_dedup<HierRuntime>, z, ref_dedup);
}

std::uint64_t emergency_events() {
  return trace::snapshot()
      .by_kind[static_cast<unsigned>(trace::Ev::kEmergency)]
      .count();
}

template <class RT>
void one_shot_cascade() {
  const std::uint64_t events_before = emergency_events();
  {
    RT rt(oom_options<RT>(1, 0, "chunk_alloc=fail@3"));
    std::int64_t alive = rt.run([](typename RT::Ctx& ctx) {
      std::int64_t n = 0;
      for (int i = 0; i < 20000; ++i) {
        n += ctx.alloc(0, 30) != nullptr;
      }
      return n;
    });
    CHECK_EQ(alive, 20000);
    CHECK_EQ(rt.stats().emergency_gcs, std::uint64_t{1});
  }
  CHECK_EQ(emergency_events() - events_before, std::uint64_t{1});
  failpoint::Registry::instance().reset();
}

// Leaf collections copy through the one evacuator too, so a packet
// fault reaches SeqRuntime, whose only collections are leaf ones: with
// every grey-packet allocation failing, each collection scans from the
// degraded overflow list and the run still returns the plain checksum.
PARMEM_TEST(oom_seq_leaf_gc_degrades_without_packets) {
  Sizes z = oom_sizes();
  z.msort_pure_n = 1 << 13;
  SeqRuntime::Options o;
  o.gc_min_budget = std::size_t{16} << 10;  // evacuates twice at this size
  std::int64_t ref = 0;
  {
    SeqRuntime plain(o);
    ref = bench_msort_pure(plain, z).checksum;
    CHECK(plain.stats().gc_bytes_copied > 0);
  }
  o.failpoints = "packet_alloc=every(1)";
  {
    SeqRuntime rt(o);
    CHECK_EQ(bench_msort_pure(rt, z).checksum, ref);
    CHECK(rt.stats().gc_bytes_copied > 0);
    CHECK(failpoint::Registry::instance().hits(
              failpoint::Site::kPacketAlloc) > 0);
  }
  failpoint::Registry::instance().reset();
}

PARMEM_TEST(oom_emergency_cascade_recovers) {
  // A one-shot chunk fault is indistinguishable from a transient
  // budget hit: every runtime must absorb it with one emergency
  // collection + retry and still produce the right answer.
  const Sizes z = oom_sizes();
  SeqRuntime plain;
  const std::int64_t ref = bench_dedup(plain, z).checksum;
  {
    auto [completed, sum] =
        run_bounded<SeqRuntime>(&bench_dedup<SeqRuntime>, 1, 0,
                                "chunk_alloc=fail@3", z);
    CHECK(completed);
    CHECK_EQ(sum, ref);
  }
  // Deterministic cascade check: a fresh heap's chunks grow 4K, 8K,
  // 16K... so an allocation-heavy loop reaches the 3rd FRESH chunk
  // allocation long before the first scheduled collection, the
  // one-shot fires there, and alloc_slow must absorb it with exactly
  // one emergency cascade (kernels recycle pooled chunks, which
  // bypass the fresh-chunk failpoint -- hence the hand-rolled loop).
  // The cascade bills one emergency_gcs and records one
  // emergency_cascade event, on seq and on a 1-worker stw alike.
  one_shot_cascade<SeqRuntime>();
  one_shot_cascade<StwRuntime>();
  for (unsigned w : {1u, 2u}) {
    auto stw = run_bounded<StwRuntime>(&bench_dedup<StwRuntime>, w, 0,
                                       "chunk_alloc=fail@3", z);
    CHECK(stw.first);
    CHECK_EQ(stw.second, ref);
    auto lh = run_bounded<LhRuntime>(&bench_dedup<LhRuntime>, w, 0,
                                     "chunk_alloc=fail@3", z);
    CHECK(lh.first);
    CHECK_EQ(lh.second, ref);
    auto hier = run_bounded<HierRuntime>(&bench_dedup<HierRuntime>, w, 0,
                                         "chunk_alloc=fail@3", z);
    CHECK(hier.first);
    CHECK_EQ(hier.second, ref);
  }
}

PARMEM_TEST(oom_hard_exhaustion_is_clean) {
  // every(1) refuses EVERY mutator chunk allocation: no run can
  // complete, and every failure must surface as a clean typed
  // OutOfMemory from the first alloc that needs a chunk.
  const Sizes z = oom_sizes();
  {
    auto [completed, sum] =
        run_bounded<SeqRuntime>(&bench_dedup<SeqRuntime>, 1,
                                0, "chunk_alloc=every(1)", z);
    (void)sum;
    CHECK(!completed);
  }
  for (unsigned w : {1u, 2u}) {
    CHECK(!run_bounded<StwRuntime>(&bench_dedup<StwRuntime>, w, 0,
                                   "chunk_alloc=every(1)", z)
               .first);
    CHECK(!run_bounded<LhRuntime>(&bench_dedup<LhRuntime>, w, 0,
                                  "chunk_alloc=every(1)", z)
               .first);
    CHECK(!run_bounded<HierRuntime>(&bench_dedup<HierRuntime>, w, 0,
                                    "chunk_alloc=every(1)", z)
               .first);
  }
}

PARMEM_TEST(oom_probabilistic_fault_sweep) {
  // Random-but-deterministic faults at every site at once, across all
  // runtimes and a promoting kernel: correct checksum or clean OOM.
  const Sizes z = oom_sizes();
  SeqRuntime plain;
  const std::int64_t ref = bench_usp_tree(plain, z).checksum;
  const char* spec =
      "chunk_alloc=prob(0.05,7);packet_alloc=prob(0.2,11);"
      "promote_copy=prob(0.02,13)";
  for (unsigned seed_shift : {0u, 1u, 2u}) {
    (void)seed_shift;  // reruns exercise different interleavings
    for (unsigned w : {1u, 2u}) {
      auto stw =
          run_bounded<StwRuntime>(&bench_usp_tree<StwRuntime>, w, 0, spec, z);
      if (stw.first) {
        CHECK_EQ(stw.second, ref);
      }
      auto lh =
          run_bounded<LhRuntime>(&bench_usp_tree<LhRuntime>, w, 0, spec, z);
      if (lh.first) {
        CHECK_EQ(lh.second, ref);
      }
      auto hier =
          run_bounded<HierRuntime>(&bench_usp_tree<HierRuntime>, w, 0, spec,
                                   z);
      if (hier.first) {
        CHECK_EQ(hier.second, ref);
      }
    }
  }
}

// ---- exception propagation through a stolen branch --------------------------

// fork2 at P=2 where the RIGHT (spawned) branch throws OutOfMemory
// after the LEFT has confirmed the right is running on the other
// worker -- so the throw unwinds a genuinely STOLEN branch. The
// exception must arrive typed at the join, the sibling result must be
// intact, and the runtime must stay usable afterwards (no leaked
// park/gate state, heaps merged or released).
template <class RT>
void stolen_branch_throw() {
  RT rt(oom_options<RT>(2, 0, ""));
  std::atomic<bool> right_running{false};
  bool threw = false;
  try {
    rt.run([&](typename RT::Ctx& ctx) {
      auto [a, b] = RT::fork2(
          ctx, {},
          [&](typename RT::Ctx&) {
            // Left occupies this worker until the right is stolen.
            while (!right_running.load(std::memory_order_acquire)) {
              std::this_thread::yield();
            }
            return std::int64_t{1};
          },
          [&](typename RT::Ctx& c) -> std::int64_t {
            right_running.store(true, std::memory_order_release);
            // A few real allocations first, then the failure.
            for (int i = 0; i < 100; ++i) {
              (void)c.alloc(1, 1);
            }
            throw OutOfMemory("chunk_alloc", 4096, 0, 0, 0);
          });
      return a + b;
    });
  } catch (const OutOfMemory& e) {
    threw = true;
    CHECK(std::string(e.site()) == "chunk_alloc");
  }
  CHECK(threw);
  // The runtime survived: same instance runs a full kernel correctly.
  const Sizes z = oom_sizes();
  SeqRuntime plain;
  CHECK_EQ(bench_tourney(rt, z).checksum,
           bench_tourney(plain, z).checksum);
}

PARMEM_TEST(oom_stolen_branch_unwinds_seq) {
  // Sequential fork2 never steals; the "stolen" protocol degenerates
  // to ordinary propagation. Run it for the 4-runtime matrix anyway,
  // minus the cross-worker handshake (it would self-deadlock on 1
  // worker).
  SeqRuntime rt;
  bool threw = false;
  try {
    rt.run([&](SeqRuntime::Ctx& ctx) {
      auto [a, b] = SeqRuntime::fork2(
          ctx, {}, [](SeqRuntime::Ctx&) { return std::int64_t{1}; },
          [](SeqRuntime::Ctx&) -> std::int64_t {
            throw OutOfMemory("chunk_alloc", 4096, 0, 0, 0);
          });
      return a + b;
    });
  } catch (const OutOfMemory&) {
    threw = true;
  }
  CHECK(threw);
  const Sizes z = oom_sizes();
  SeqRuntime plain;
  CHECK_EQ(bench_tourney(rt, z).checksum,
           bench_tourney(plain, z).checksum);
}

PARMEM_TEST(oom_stolen_branch_unwinds_stw) { stolen_branch_throw<StwRuntime>(); }
PARMEM_TEST(oom_stolen_branch_unwinds_localheap) {
  stolen_branch_throw<LhRuntime>();
}
PARMEM_TEST(oom_stolen_branch_unwinds_hier) {
  stolen_branch_throw<HierRuntime>();
}

// ---- memory is released after a failed run ---------------------------------

PARMEM_TEST(oom_failed_run_releases_memory) {
  const Sizes z = oom_sizes();
  for (int round = 0; round < 2; ++round) {
    // One minimum-size chunk of budget: the kernel's live set alone
    // outgrows it, so the run must OOM...
    SeqRuntime rt(oom_options<SeqRuntime>(1, 4 << 10, ""));
    bool threw = false;
    try {
      (void)bench_dedup(rt, z);
    } catch (const OutOfMemory&) {
      threw = true;
    }
    CHECK(threw);
    // ...and unwinding must hand every chunk back to the pool.
    CHECK_EQ(rt.live_bytes(), 0u);
    // The same instance (same budget) then completes a workload whose
    // live set fits one chunk, reusing the pooled chunks -- possibly
    // through many emergency collections.
    Sizes tiny = z;
    tiny.tourney_n = 16;
    SeqRuntime plain;
    CHECK_EQ(bench_tourney(rt, tiny).checksum,
             bench_tourney(plain, tiny).checksum);
  }
}

// ---- composition with GC stress --------------------------------------------

PARMEM_TEST(oom_composes_with_gc_stress) {
  // Budget + constant collection + a one-shot fault, all at once, on
  // the hierarchical runtime: still checksum-exact or cleanly OOM.
  const Sizes z = oom_sizes();
  SeqRuntime plain;
  const std::int64_t ref = bench_usp_tree(plain, z).checksum;
  std::size_t peak;
  {
    HierRuntime::Options o;
    o.workers = 2;
    o.gc_stress = true;
    HierRuntime rt(o);
    CHECK_EQ(bench_usp_tree(rt, z).checksum, ref);
    peak = rt.peak_bytes();
  }
  for (double frac : {1.5, 0.75}) {
    HierRuntime::Options o;
    o.workers = 2;
    o.gc_stress = true;
    o.heap_budget_bytes =
        static_cast<std::size_t>(static_cast<double>(peak) * frac);
    o.failpoints = "chunk_alloc=fail@5";
    HierRuntime rt(o);
    try {
      CHECK_EQ(bench_usp_tree(rt, z).checksum, ref);
    } catch (const OutOfMemory&) {
      // acceptable under a sub-peak budget
    }
    failpoint::Registry::instance().reset();
  }
}

// ---- env validation (satellite b): exit(2) + one-line diagnosis -------------

// Spawned by oom_env_validation in a child process; just constructs
// runtimes, which is what triggers env validation, and reports the
// global threshold an LhRuntime resolved from the environment.
PARMEM_TEST(oom_env_probe) {
  SeqRuntime rt;
  (void)rt;
  LhRuntime lh({.workers = 1});
  std::printf("gc_global_threshold=%zu\n", lh.options().gc_global_threshold);
}

PARMEM_TEST(oom_env_validation) {
  char exe[4096];
  ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  CHECK(n > 0);
  exe[n] = '\0';
  // Runs the probe under `env`; returns its exit status and, in *out,
  // what it printed.
  auto run_with_env = [&](const std::string& env, std::string* out = nullptr) {
    std::string cmd = env + " " + exe + " oom_env_probe 2>/dev/null";
    std::FILE* p = ::popen(cmd.c_str(), "r");
    CHECK(p != nullptr);
    std::string text;
    char buf[256];
    while (std::fgets(buf, sizeof buf, p) != nullptr) {
      text += buf;
    }
    int rc = ::pclose(p);
    if (out != nullptr) {
      *out = text;
    }
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  };
  CHECK_EQ(run_with_env("PARMEM_HEAP_BUDGET=768M"), 0);
  CHECK_EQ(run_with_env("PARMEM_HEAP_BUDGET="), 0);  // empty = unset
  CHECK_EQ(run_with_env("PARMEM_FAILPOINTS='chunk_alloc=fail@3'"), 0);
  CHECK_EQ(run_with_env("PARMEM_FAILPOINTS='chunk_alloc=prob(0.5,7)'"), 0);
  CHECK_EQ(run_with_env("PARMEM_HEAP_BUDGET=bogus"), 2);
  CHECK_EQ(run_with_env("PARMEM_HEAP_BUDGET=12MB"), 2);
  CHECK_EQ(run_with_env("PARMEM_FAILPOINTS='nosite=fail@1'"), 2);
  CHECK_EQ(run_with_env("PARMEM_FAILPOINTS='chunk_alloc=prob(9,1)'"), 2);
  // The collection thresholds take the budget's grammar: 1M is 1 MiB,
  // not 1 byte, and a malformed value is an error, not "off".
  std::string out;
  CHECK_EQ(run_with_env("PARMEM_GC_GLOBAL_THRESHOLD=1M", &out), 0);
  CHECK(out.find("gc_global_threshold=1048576\n") != std::string::npos);
  CHECK_EQ(run_with_env("PARMEM_GC_GLOBAL_THRESHOLD=abc"), 2);
  CHECK_EQ(run_with_env("PARMEM_INTERNAL_GC_THRESHOLD=4K"), 0);
  CHECK_EQ(run_with_env("PARMEM_INTERNAL_GC_THRESHOLD=12MB"), 2);
  CHECK_EQ(run_with_env("PARMEM_PROFILE_HZ=0"), 2);
  CHECK_EQ(run_with_env("PARMEM_PROFILE_HZ=20000"), 2);
}

}  // namespace
