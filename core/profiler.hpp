// SIGPROF-driven sampling profiler: an ITIMER_PROF timer delivers
// SIGPROF to whichever thread is burning CPU; the handler walks the
// frame-pointer chain async-signal-safely and appends the stack --
// tagged with the thread's current phase (core/phase.hpp) -- to a
// per-worker-slot lock-free ring. stop() folds identical stacks and
// writes collapsed-stack output for scripts/flamegraph.py /
// scripts/flamediff.py.
//
// Async-signal-safety rules the handler obeys:
//   * no allocation ever: every slot's sample buffer is preallocated
//     by start(), the handler only loads preexisting pointers;
//   * errno is saved/restored;
//   * the frame walk only dereferences addresses inside the sampled
//     thread's own stack, bounded by [sp, stack watermark]. The
//     watermark is noted by note_stack_hi() at thread entry points
//     (scheduler worker_main, runtime construction); a thread that
//     never noted one -- or a slot-collided thread, detected by tid
//     mismatch -- gets PC-only samples instead of a walk;
//   * the walk and handler are no_sanitize("address","thread"):
//     reading saved frame pointers trips ASan/TSan instrumentation by
//     design, and the races on phase tags are benign relaxed atomics.
//
// Sample record layout in the ring (uint64 words):
//   [ (depth << 8) | phase , pc0 (leaf), pc1, ... pc{depth-1} ]
// Frames are raw addresses; the collapsed output carries the
// executable's path and load base in a '#' header so flamegraph.py can
// symbolize offline with addr2line (works for static / non-exported
// functions, which dladdr cannot see in a PIE executable).
//
// Requires -fno-omit-frame-pointer for useful stacks (CMake option
// PARMEM_FRAME_POINTERS, default ON); without it samples degrade to
// PC-only, they do not crash.
#pragma once

#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/phase.hpp"

namespace parmem::profiler {

namespace detail {

constexpr unsigned kMaxDepth = 64;
constexpr std::size_t kRingWords = 1u << 16;  // 512 KiB per slot

inline long sys_tid() { return static_cast<long>(::syscall(SYS_gettid)); }

// One per worker slot (same slot space as core/phase.hpp). The signal
// handler is the only writer (and only ever on the slot's own thread);
// head_ is published with release so the post-stop reader sees whole
// records.
struct Slot {
  std::vector<std::uint64_t> buf;  // sized once by start(), never grown
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> drops{0};
  std::atomic<std::uint64_t> stack_hi{0};
  std::atomic<long> tid{0};
};

inline Slot* slots() {
  static Slot table[phase::kSlots];
  return table;
}

inline std::atomic<bool>& armed() {
  static std::atomic<bool> f{false};
  return f;
}

struct State {
  std::string out_path;
  std::string exe_path;
  std::uint64_t exe_base = 0;
  unsigned hz = 0;
  struct sigaction old_sa = {};
  bool have_old_sa = false;
};

inline State& state() {
  static State s;
  return s;
}

// Load base of the main executable (PIE): lowest start address of a
// /proc/self/maps line whose path is /proc/self/exe's target.
// Called from start(), never from the handler.
inline std::uint64_t find_exe_base(std::string& exe_out) {
  char exe[4096];
  ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) {
    return 0;
  }
  exe[n] = '\0';
  exe_out = exe;
  std::FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) {
    return 0;
  }
  std::uint64_t base = 0;
  char line[4096];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strstr(line, exe) == nullptr) {
      continue;
    }
    std::uint64_t lo = std::strtoull(line, nullptr, 16);
    if (base == 0 || lo < base) {
      base = lo;
    }
  }
  std::fclose(f);
  return base;
}

#if defined(__x86_64__)

// Walk the saved-rbp chain. Each hop must move strictly up the stack,
// stay inside [sp, stack_hi - 16], and be 8-byte aligned -- the chain
// from code compiled with frame pointers satisfies this until it
// reaches the thread's entry frame (glibc zeroes rbp there), and
// garbage rbp values from frame-pointer-less libc leaves fail the
// bounds check instead of faulting.
__attribute__((no_sanitize("address"), no_sanitize("thread")))
inline unsigned walk(std::uint64_t pc, std::uint64_t bp, std::uint64_t sp,
                     std::uint64_t hi, std::uint64_t* out,
                     unsigned max_depth) {
  unsigned d = 0;
  out[d++] = pc;
  std::uint64_t fp = bp;
  while (d < max_depth && fp >= sp && fp + 16 <= hi && (fp & 7) == 0) {
    const std::uint64_t* frame = reinterpret_cast<const std::uint64_t*>(fp);
    std::uint64_t ret = frame[1];
    std::uint64_t next = frame[0];
    if (ret == 0) {
      break;
    }
    out[d++] = ret;
    if (next <= fp) {
      break;
    }
    fp = next;
  }
  return d;
}

__attribute__((no_sanitize("address"), no_sanitize("thread")))
inline void handler(int, siginfo_t*, void* ucv) {
  if (!armed().load(std::memory_order_relaxed)) {
    return;
  }
  const int saved_errno = errno;
  ucontext_t* uc = static_cast<ucontext_t*>(ucv);
  const std::uint64_t pc =
      static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const std::uint64_t bp =
      static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RBP]);
  const std::uint64_t sp =
      static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RSP]);

  Slot& s = slots()[phase::my_slot_index()];
  std::uint64_t frames[kMaxDepth];
  unsigned depth = 1;
  frames[0] = pc;
  const std::uint64_t hi = s.stack_hi.load(std::memory_order_relaxed);
  if (hi != 0 && s.tid.load(std::memory_order_relaxed) == sys_tid() &&
      sp < hi) {
    depth = walk(pc, bp, sp, hi, frames, kMaxDepth);
  }

  const std::uint64_t need = 1 + depth;
  const std::uint64_t head = s.head.load(std::memory_order_relaxed);
  if (head + need > s.buf.size() || s.buf.empty()) {
    s.drops.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  s.buf[head] =
      (static_cast<std::uint64_t>(depth) << 8) |
      static_cast<std::uint64_t>(phase::current());
  for (unsigned i = 0; i < depth; ++i) {
    s.buf[head + 1 + i] = frames[i];
  }
  s.head.store(head + need, std::memory_order_release);
  errno = saved_errno;
}

#else  // !__x86_64__

inline void handler(int, siginfo_t*, void*) {}

#endif

}  // namespace detail

// Note the calling thread's stack watermark for the frame walk: the
// address of a local in (or above) the outermost frame worth
// unwinding. Called at thread entry points; monotone per registration
// (a fresh thread reusing the slot re-registers via the tid change).
inline void note_stack_hi() {
  std::uint64_t here = reinterpret_cast<std::uint64_t>(&here);
  detail::Slot& s = detail::slots()[phase::my_slot_index()];
  const long me = detail::sys_tid();
  if (s.tid.load(std::memory_order_relaxed) != me) {
    s.tid.store(me, std::memory_order_relaxed);
    s.stack_hi.store(here, std::memory_order_relaxed);
    return;
  }
  if (here > s.stack_hi.load(std::memory_order_relaxed)) {
    s.stack_hi.store(here, std::memory_order_relaxed);
  }
}

inline bool running() {
  return detail::armed().load(std::memory_order_relaxed);
}

// Arm SIGPROF sampling at `hz`. Allocates every slot's ring up front
// so the handler never allocates. Idempotent while running.
inline bool start(unsigned hz = 499) {
  if (running()) {
    return true;
  }
  detail::State& st = detail::state();
  st.hz = hz == 0 ? 499 : hz;
  if (st.exe_base == 0) {
    st.exe_base = detail::find_exe_base(st.exe_path);
  }
  for (unsigned i = 0; i < phase::kSlots; ++i) {
    detail::Slot& s = detail::slots()[i];
    if (s.buf.empty()) {
      s.buf.assign(detail::kRingWords, 0);
    }
    s.head.store(0, std::memory_order_relaxed);
    s.drops.store(0, std::memory_order_relaxed);
  }
  note_stack_hi();

  struct sigaction sa = {};
  sa.sa_sigaction = &detail::handler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &st.old_sa) != 0) {
    return false;
  }
  st.have_old_sa = true;
  detail::armed().store(true, std::memory_order_relaxed);

  const long usec = 1000000L / static_cast<long>(st.hz);
  struct itimerval it = {};
  it.it_interval.tv_usec = usec;
  it.it_value.tv_usec = usec;
  if (setitimer(ITIMER_PROF, &it, nullptr) != 0) {
    detail::armed().store(false, std::memory_order_relaxed);
    return false;
  }
  return true;
}

// Disarm the timer and handler. Samples stay buffered for
// write_collapsed(); start() may be called again afterwards.
inline void stop() {
  if (!running()) {
    return;
  }
  struct itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  detail::armed().store(false, std::memory_order_relaxed);
  detail::State& st = detail::state();
  if (st.have_old_sa) {
    sigaction(SIGPROF, &st.old_sa, nullptr);
    st.have_old_sa = false;
  }
}

inline std::uint64_t sample_count() {
  std::uint64_t n = 0;
  for (unsigned i = 0; i < phase::kSlots; ++i) {
    detail::Slot& s = detail::slots()[i];
    const std::uint64_t head = s.head.load(std::memory_order_acquire);
    std::uint64_t off = 0;
    while (off < head) {
      ++n;
      off += 1 + (s.buf[off] >> 8);
    }
  }
  return n;
}

inline std::uint64_t drop_count() {
  std::uint64_t n = 0;
  for (unsigned i = 0; i < phase::kSlots; ++i) {
    n += detail::slots()[i].drops.load(std::memory_order_relaxed);
  }
  return n;
}

// Write folded collapsed-stack output:
//   # parmem-profile binary=<exe> base=0x<load base> samples=N drops=D
//   <phase>;0x<root pc>;...;0x<leaf pc> <count>
// Root-first order (flame-graph convention); addresses raw (subtract
// `base` before addr2line). Call after stop(), or accept losing the
// samples that land mid-write.
inline bool write_collapsed(const char* path) {
  std::map<std::string, std::uint64_t> folded;
  char tok[32];
  for (unsigned i = 0; i < phase::kSlots; ++i) {
    detail::Slot& s = detail::slots()[i];
    const std::uint64_t head = s.head.load(std::memory_order_acquire);
    std::uint64_t off = 0;
    while (off < head) {
      const std::uint64_t hdr = s.buf[off];
      const unsigned depth = static_cast<unsigned>(hdr >> 8);
      const auto ph = static_cast<phase::Phase>(hdr & 0xff);
      std::string key = phase::name(ph);
      for (unsigned d = depth; d-- > 0;) {  // leaf is stored first
        std::snprintf(tok, sizeof tok, ";0x%llx",
                      static_cast<unsigned long long>(s.buf[off + 1 + d]));
        key += tok;
      }
      ++folded[key];
      off += 1 + depth;
    }
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    return false;
  }
  const detail::State& st = detail::state();
  std::uint64_t total = 0;
  for (const auto& kv : folded) {
    total += kv.second;
  }
  std::fprintf(f, "# parmem-profile binary=%s base=0x%llx samples=%llu "
               "drops=%llu\n",
               st.exe_path.empty() ? "?" : st.exe_path.c_str(),
               static_cast<unsigned long long>(st.exe_base),
               static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(drop_count()));
  for (const auto& kv : folded) {
    std::fprintf(f, "%s %llu\n", kv.first.c_str(),
                 static_cast<unsigned long long>(kv.second));
  }
  std::fclose(f);
  return true;
}

// Start sampling at `hz` now and write collapsed output to `path` at
// process exit (PARMEM_PROFILE / PARMEM_PROFILE_HZ, core/config.hpp);
// "" = no profile. Called once per process, by the first runtime
// constructed.
inline void profile_at_exit(const std::string& path, unsigned hz) {
  if (path.empty()) {
    return;
  }
  detail::state().out_path = path;
  start(hz);
  std::atexit([] {
    stop();
    const std::string& p = detail::state().out_path;
    if (!write_collapsed(p.c_str())) {
      std::fprintf(stderr, "parmem: cannot write PARMEM_PROFILE file %s\n",
                   p.c_str());
    }
  });
}

}  // namespace parmem::profiler
