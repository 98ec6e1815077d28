// Bounded-memory support: the typed allocation-failure exception and
// the deterministic allocation-fault-injection registry.
//
// Failpoints are named allocation sites (chunk_alloc, packet_alloc,
// promote_copy) that can be armed with a trigger spec:
//
//   site=fail@N      fail exactly the Nth hit (1-based), once
//   site=every(N)    fail every Nth hit (every(1) = hard exhaustion)
//   site=prob(p,s)   fail each hit with probability p, xorshift seed s
//
// Specs are installed from RT::Options::failpoints (malformed ->
// std::invalid_argument) or the PARMEM_FAILPOINTS environment variable
// (validated by core/config.hpp). The registry is process-wide; when
// nothing is armed the per-site check is one relaxed atomic load on a
// shared flag.
//
// Collector-context exemption: allocations made INSIDE a collection
// (to-space copies, evacuation-team buffers) run under a GcAllocScope
// and are exempt from both the heap budget and injected faults. A
// copying collector cannot unwind mid-evacuation -- from-space is
// already detached and roots partially rewritten -- and its transient
// to-space is bounded by live data, so the exemption is what makes
// "collect, retry, then fail the one request cleanly" sound. Faults
// and budget checks therefore fire only at mutator allocation
// boundaries, where unwinding is well-defined.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

namespace parmem {

// Typed allocation failure: which site failed and the pool accounting
// at the moment of failure, so an OOM is attributable (and assertable
// in tests) even with the budget off.
class OutOfMemory : public std::bad_alloc {
 public:
  OutOfMemory(const char* site, std::size_t requested, std::size_t live,
              std::size_t budget, std::size_t peak) noexcept
      : requested_(requested), live_(live), budget_(budget), peak_(peak) {
    std::snprintf(site_, sizeof(site_), "%s", site);
    std::snprintf(msg_, sizeof(msg_),
                  "parmem::OutOfMemory at %s: requested=%zu live=%zu "
                  "budget=%zu peak=%zu",
                  site_, requested, live, budget, peak);
  }

  const char* what() const noexcept override { return msg_; }
  const char* site() const noexcept { return site_; }
  std::size_t requested_bytes() const noexcept { return requested_; }
  std::size_t live_bytes() const noexcept { return live_; }
  std::size_t budget_bytes() const noexcept { return budget_; }  // 0 = off
  std::size_t peak_bytes() const noexcept { return peak_; }

 private:
  char site_[24];
  char msg_[160];
  std::size_t requested_;
  std::size_t live_;
  std::size_t budget_;
  std::size_t peak_;
};

namespace failpoint {

enum class Site : unsigned {
  kChunkAlloc = 0,  // ChunkPool::fresh (chunk memory from the OS)
  kPacketAlloc,     // ParallelCollector::take_packet (grey-packet malloc)
  kPromoteCopy,     // promote_and_store entry (promotion closure copy)
  kCount,
};

inline constexpr const char* kSiteNames[] = {"chunk_alloc", "packet_alloc",
                                             "promote_copy"};

inline const char* site_name(Site s) {
  return kSiteNames[static_cast<unsigned>(s)];
}

struct Spec {
  enum class Kind : unsigned { kOff, kFailAt, kEvery, kProb };
  Kind kind = Kind::kOff;
  std::uint64_t n = 0;     // fail@N / every(N)
  double p = 0.0;          // prob(p, seed)
  std::uint64_t seed = 1;  // prob(p, seed); never 0 (xorshift fixpoint)
};

// Per-process registry. should_fail() is only reached when armed; the
// fast path is triggered()'s one relaxed load.
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Arm one site. Resets that site's hit counter so installation order
  // is deterministic regardless of earlier runs.
  void arm(Site s, const Spec& spec) {
    State& st = sites_[static_cast<unsigned>(s)];
    st.hits.store(0, std::memory_order_relaxed);
    st.rng.store(spec.seed != 0 ? spec.seed : 1, std::memory_order_relaxed);
    st.spec = spec;
    rearm_flag();
  }

  // Disarm everything and zero the counters (test isolation).
  void reset() {
    for (State& st : sites_) {
      st.spec = Spec{};
      st.hits.store(0, std::memory_order_relaxed);
      st.rng.store(1, std::memory_order_relaxed);
    }
    armed_.store(false, std::memory_order_relaxed);
  }

  // Count one hit of `s` and decide whether it fails. Thread-safe and
  // deterministic per-site: the hit index comes from one fetch_add.
  bool should_fail(Site s) {
    State& st = sites_[static_cast<unsigned>(s)];
    const Spec& spec = st.spec;
    if (spec.kind == Spec::Kind::kOff) {
      return false;
    }
    std::uint64_t hit =
        st.hits.fetch_add(1, std::memory_order_relaxed) + 1;  // 1-based
    switch (spec.kind) {
      case Spec::Kind::kFailAt:
        return hit == spec.n;
      case Spec::Kind::kEvery:
        return spec.n != 0 && hit % spec.n == 0;
      case Spec::Kind::kProb: {
        // xorshift64*: deterministic for a given seed and hit order.
        std::uint64_t x = st.rng.load(std::memory_order_relaxed);
        std::uint64_t nx;
        do {
          nx = x;
          nx ^= nx >> 12;
          nx ^= nx << 25;
          nx ^= nx >> 27;
        } while (!st.rng.compare_exchange_weak(x, nx,
                                               std::memory_order_relaxed));
        double u = static_cast<double>((nx * 0x2545F4914F6CDD1DULL) >> 11) *
                   (1.0 / 9007199254740992.0);  // [0, 1)
        return u < spec.p;
      }
      case Spec::Kind::kOff:
        break;
    }
    return false;
  }

  std::uint64_t hits(Site s) const {
    return sites_[static_cast<unsigned>(s)].hits.load(
        std::memory_order_relaxed);
  }

 private:
  struct State {
    Spec spec;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> rng{1};
  };

  void rearm_flag() {
    bool any = false;
    for (const State& st : sites_) {
      any = any || st.spec.kind != Spec::Kind::kOff;
    }
    armed_.store(any, std::memory_order_relaxed);
  }

  std::atomic<bool> armed_{false};
  State sites_[static_cast<unsigned>(Site::kCount)];
};

// Near-zero cost when nothing is armed: one relaxed load, branch
// predicted not-taken.
inline bool triggered(Site s) {
  Registry& r = Registry::instance();
  if (__builtin_expect(!r.armed(), 1)) {
    return false;
  }
  return r.should_fail(s);
}

// ---- collector-context exemption (see header comment) ----------------------

inline int& gc_exempt_depth() {
  thread_local int depth = 0;
  return depth;
}

inline bool gc_exempt() { return gc_exempt_depth() != 0; }

struct GcAllocScope {
  GcAllocScope() { ++gc_exempt_depth(); }
  ~GcAllocScope() { --gc_exempt_depth(); }
  GcAllocScope(const GcAllocScope&) = delete;
  GcAllocScope& operator=(const GcAllocScope&) = delete;
};

// ---- spec parsing -----------------------------------------------------------

// Parse one "site=trigger" clause. Returns false and fills *err (a
// one-line, human-actionable message) on malformed input.
inline bool parse_clause(const std::string& clause, Site* site, Spec* spec,
                         std::string* err) {
  std::size_t eq = clause.find('=');
  if (eq == std::string::npos) {
    *err = "failpoint clause '" + clause + "' has no '=' (want site=trigger)";
    return false;
  }
  std::string name = clause.substr(0, eq);
  std::string trig = clause.substr(eq + 1);
  int found = -1;
  for (unsigned i = 0; i < static_cast<unsigned>(Site::kCount); ++i) {
    if (name == kSiteNames[i]) {
      found = static_cast<int>(i);
    }
  }
  if (found < 0) {
    *err = "unknown failpoint site '" + name +
           "' (known: chunk_alloc, packet_alloc, promote_copy)";
    return false;
  }
  *site = static_cast<Site>(found);
  char* end = nullptr;
  if (trig.rfind("fail@", 0) == 0) {
    const char* num = trig.c_str() + 5;
    unsigned long long n = std::strtoull(num, &end, 10);
    if (end == num || *end != '\0' || n == 0) {
      *err = "bad trigger '" + trig + "' (want fail@N with N >= 1)";
      return false;
    }
    spec->kind = Spec::Kind::kFailAt;
    spec->n = n;
    return true;
  }
  if (trig.rfind("every(", 0) == 0 && trig.back() == ')') {
    std::string num = trig.substr(6, trig.size() - 7);
    unsigned long long n = std::strtoull(num.c_str(), &end, 10);
    if (end == num.c_str() || *end != '\0' || n == 0) {
      *err = "bad trigger '" + trig + "' (want every(N) with N >= 1)";
      return false;
    }
    spec->kind = Spec::Kind::kEvery;
    spec->n = n;
    return true;
  }
  if (trig.rfind("prob(", 0) == 0 && trig.back() == ')') {
    std::string body = trig.substr(5, trig.size() - 6);
    std::size_t comma = body.find(',');
    if (comma == std::string::npos) {
      *err = "bad trigger '" + trig + "' (want prob(p,seed))";
      return false;
    }
    std::string ps = body.substr(0, comma);
    std::string ss = body.substr(comma + 1);
    double p = std::strtod(ps.c_str(), &end);
    if (end == ps.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
      *err = "bad trigger '" + trig + "' (p must be in [0, 1])";
      return false;
    }
    unsigned long long seed = std::strtoull(ss.c_str(), &end, 10);
    if (end == ss.c_str() || *end != '\0') {
      *err = "bad trigger '" + trig + "' (seed must be an integer)";
      return false;
    }
    spec->kind = Spec::Kind::kProb;
    spec->p = p;
    spec->seed = seed;
    return true;
  }
  *err = "unknown trigger '" + trig +
         "' (want fail@N, every(N), or prob(p,seed))";
  return false;
}

// Parse a full spec string: clauses separated by ';' (or ',' outside
// parentheses). Returns false + *err without arming anything on the
// first malformed clause.
inline bool parse_spec(const std::string& s, Registry* reg,
                       std::string* err) {
  struct Parsed {
    Site site;
    Spec spec;
  };
  std::string buf;
  int depth = 0;
  std::vector<Parsed> out;
  auto flush = [&]() -> bool {
    // Trim surrounding whitespace.
    std::size_t b = buf.find_first_not_of(" \t");
    std::size_t e = buf.find_last_not_of(" \t");
    std::string c =
        b == std::string::npos ? std::string() : buf.substr(b, e - b + 1);
    buf.clear();
    if (c.empty()) {
      return true;
    }
    Parsed p;
    if (!parse_clause(c, &p.site, &p.spec, err)) {
      return false;
    }
    out.push_back(p);
    return true;
  };
  for (char ch : s) {
    if (ch == '(') {
      ++depth;
    } else if (ch == ')') {
      --depth;
    }
    if ((ch == ';' || ch == ',') && depth == 0) {
      if (!flush()) {
        return false;
      }
      continue;
    }
    buf.push_back(ch);
  }
  if (!flush()) {
    return false;
  }
  for (const Parsed& p : out) {
    reg->arm(p.site, p.spec);
  }
  return true;
}

// Options-sourced installation: misconfiguration is a programming
// error at the call site, so it throws.
inline void install(const std::string& spec) {
  std::string err;
  if (!parse_spec(spec, &Registry::instance(), &err)) {
    throw std::invalid_argument("PARMEM failpoints: " + err);
  }
}

// RAII install/reset for tests: arms `spec` for the scope and disarms
// the whole registry (including counters) on exit.
struct ScopedFailpoints {
  explicit ScopedFailpoints(const std::string& spec) { install(spec); }
  ~ScopedFailpoints() { Registry::instance().reset(); }
  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;
};

}  // namespace failpoint
}  // namespace parmem
