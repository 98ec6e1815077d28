// The one reader of parmem's process environment. Every PARMEM_*
// variable the library honours (one Config field each, below; the
// README's Configuration table says which runtimes honour it) is read
// here, validated, and cached for the life of the process by the
// first call of config::env() -- which the construction of any
// runtime makes (RuntimeShell, runtimes/runtime_api.hpp). A malformed
// value is a one-line diagnosis on stderr and exit status 2, never a
// silent fallback.
//
// An empty value means unset. A flag is on unless it is "0". A size is
// a non-negative integer with an optional K/M/G suffix (binary
// multiples), e.g. 768M, and 0 means off. An explicit Options field
// wins over its variable, which fills in only a field left at 0 or "".
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "core/failpoint.hpp"

namespace parmem::config {

// Parse a byte-size spec: a non-negative integer with an optional
// K/M/G suffix (binary multiples), e.g. "768M". Returns false on
// malformed or overflowing input; *out is untouched then.
inline bool parse_size_spec(const char* s, std::size_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE) {
    return false;
  }
  unsigned shift = 0;
  if (*end != '\0') {
    switch (*end) {
      case 'k':
      case 'K':
        shift = 10;
        break;
      case 'm':
      case 'M':
        shift = 20;
        break;
      case 'g':
      case 'G':
        shift = 30;
        break;
      default:
        return false;
    }
    if (end[1] != '\0') {
      return false;
    }
  }
  if (v > (SIZE_MAX >> shift)) {
    return false;
  }
  *out = static_cast<std::size_t>(v) << shift;
  return true;
}

struct Config {
  bool gc_stress = false;          // PARMEM_GC_STRESS
  std::size_t heap_budget = 0;     // PARMEM_HEAP_BUDGET; 0 = unlimited
  std::size_t internal_gc_threshold = 0;  // PARMEM_INTERNAL_GC_THRESHOLD
  // PARMEM_GC_GLOBAL_THRESHOLD; empty when unset, so a driver with its
  // own default can still tell an explicit 0 ("off") from no setting.
  std::optional<std::size_t> gc_global_threshold;
  std::string failpoints;          // PARMEM_FAILPOINTS, already validated
  std::string trace_path;          // PARMEM_TRACE
  std::string profile_path;        // PARMEM_PROFILE
  unsigned profile_hz = 499;       // PARMEM_PROFILE_HZ
  std::string stats_json_path;     // PARMEM_STATS_JSON
};

namespace detail {

// The value of `name`, or nullptr when it is unset or empty.
inline const char* lookup(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : nullptr;
}

[[noreturn]] inline void malformed(const char* name, const char* v,
                                   const char* why) {
  std::fprintf(stderr, "parmem: malformed %s='%s': %s\n", name, v, why);
  std::exit(2);
}

inline std::optional<std::size_t> size(const char* name) {
  const char* v = lookup(name);
  if (v == nullptr) {
    return std::nullopt;
  }
  std::size_t b = 0;
  if (!parse_size_spec(v, &b)) {
    malformed(name, v, "want bytes with optional K/M/G suffix, e.g. 768M");
  }
  return b;
}

inline std::string text(const char* name) {
  const char* v = lookup(name);
  return v != nullptr ? std::string(v) : std::string();
}

inline Config read() {
  Config c;
  if (const char* v = lookup("PARMEM_GC_STRESS")) {
    c.gc_stress = !(v[0] == '0' && v[1] == '\0');
  }
  c.heap_budget = size("PARMEM_HEAP_BUDGET").value_or(0);
  c.internal_gc_threshold = size("PARMEM_INTERNAL_GC_THRESHOLD").value_or(0);
  c.gc_global_threshold = size("PARMEM_GC_GLOBAL_THRESHOLD");
  c.failpoints = text("PARMEM_FAILPOINTS");
  if (!c.failpoints.empty()) {
    failpoint::Registry scratch;  // validate without arming anything
    std::string err;
    if (!failpoint::parse_spec(c.failpoints, &scratch, &err)) {
      malformed("PARMEM_FAILPOINTS", c.failpoints.c_str(), err.c_str());
    }
  }
  c.trace_path = text("PARMEM_TRACE");
  c.profile_path = text("PARMEM_PROFILE");
  if (const char* v = lookup("PARMEM_PROFILE_HZ")) {
    std::size_t hz = 0;
    if (!parse_size_spec(v, &hz) || hz < 1 || hz > 10000) {
      malformed("PARMEM_PROFILE_HZ", v, "want a sampling rate in 1..10000");
    }
    c.profile_hz = static_cast<unsigned>(hz);
  }
  c.stats_json_path = text("PARMEM_STATS_JSON");
  return c;
}

}  // namespace detail

// The process's configuration, read and validated on first use.
inline const Config& env() {
  static const Config c = detail::read();
  return c;
}

}  // namespace parmem::config
