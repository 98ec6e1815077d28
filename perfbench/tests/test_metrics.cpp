// Self-tests for the benchmark's own arithmetic (perfbench/src/metrics.hpp)
// and span recording (perfbench/src/traced.hpp). Run by
// `python3 perfbench/run.py --self-test`.
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/histogram.hpp"
#include "perfbench/src/metrics.hpp"
#include "perfbench/src/traced.hpp"

namespace {

int failures = 0;

#define EXPECT_EQ(a, b)                                                     \
  do {                                                                      \
    const auto va_ = (a);                                                   \
    const auto vb_ = (b);                                                   \
    if (!(va_ == vb_)) {                                                    \
      std::fprintf(stderr, "%s:%d: %s == %s failed (%lld vs %lld)\n",       \
                   __FILE__, __LINE__, #a, #b, static_cast<long long>(va_), \
                   static_cast<long long>(vb_));                            \
      ++failures;                                                           \
    }                                                                       \
  } while (0)

using perfbench::kNoParent;
using perfbench::Span;
using perfbench::SpanKind;

void exact_percentiles_on_known_samples() {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    v.push_back(i * 10);  // 10, 20, ..., 1000
  }
  EXPECT_EQ(perfbench::exact_percentile(v, 0.50), 500u);
  EXPECT_EQ(perfbench::exact_percentile(v, 0.99), 990u);
  EXPECT_EQ(perfbench::exact_percentile(v, 1.00), 1000u);
  EXPECT_EQ(perfbench::exact_percentile(v, 0.0), 10u);
  EXPECT_EQ(perfbench::exact_percentile(v, 0.001), 10u);
  EXPECT_EQ(perfbench::exact_percentile(v, 0.991), 1000u);  // rank ceil(99.1)

  // Values a 6.25 % log bucket would merge stay distinct.
  const std::vector<std::uint64_t> close = {59400, 61400, 63500};
  EXPECT_EQ(perfbench::exact_percentile(close, 0.5), 61400u);
  EXPECT_EQ(perfbench::exact_percentile(close, 0.99), 63500u);
  EXPECT_EQ(perfbench::exact_percentile({}, 0.5), 0u);

  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

void self_time_subtracts_union_of_children() {
  // fork2 [0, 100] on thread 0; branch A inline [10, 60] on thread 0;
  // branch B stolen [30, 90] on thread 1, overlapping A. The children
  // cover [10, 90], so the fork's self time is 20, not 100 - 50 - 60.
  std::vector<Span> s(5);
  s[0] = Span{0, 100, kNoParent, SpanKind::kFork2, 0};
  s[1] = Span{10, 60, 0, SpanKind::kBranch, 0};
  s[2] = Span{30, 90, 0, SpanKind::kBranch, 1};
  // A grandchild under the stolen branch counts against B, not the fork.
  s[3] = Span{40, 50, 2, SpanKind::kFork2, 1};
  // A span without children is all self time.
  s[4] = Span{200, 260, kNoParent, SpanKind::kOp, 0};
  const std::vector<std::uint64_t> self = perfbench::self_times(s);
  EXPECT_EQ(self[0], 20u);
  EXPECT_EQ(self[1], 50u);
  EXPECT_EQ(self[2], 50u);
  EXPECT_EQ(self[3], 10u);
  EXPECT_EQ(self[4], 60u);

  // A child reaching past its parent's end is clipped to the parent.
  std::vector<Span> clipped(2);
  clipped[0] = Span{0, 100, kNoParent, SpanKind::kFork2, 0};
  clipped[1] = Span{80, 130, 0, SpanKind::kBranch, 1};
  EXPECT_EQ(perfbench::self_times(clipped)[0], 80u);
}

void recorded_stolen_branch_names_its_fork() {
  perfbench::SpanArena& arena = perfbench::SpanArena::get();
  arena.reset(16);
  arena.set_recording(true);
  std::uint32_t fork_id = kNoParent;
  {
    perfbench::SpanScope fork(SpanKind::kFork2);
    fork_id = fork.id();
    std::thread thief([fork_id] {
      perfbench::SpanScope b(SpanKind::kBranch, fork_id);
    });
    thief.join();
    perfbench::SpanScope a(SpanKind::kBranch, fork_id);
  }
  arena.set_recording(false);
  const std::vector<Span> s = arena.recorded();
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[1].parent, fork_id);
  EXPECT_EQ(s[2].parent, fork_id);
  EXPECT_EQ(s[0].thread == s[1].thread, false);  // the stolen branch
  EXPECT_EQ(s[0].thread, s[2].thread);
  EXPECT_EQ(perfbench::SpanScope::current(), kNoParent);

  // A full arena drops and counts instead of writing past its end.
  arena.reset(1);
  arena.set_recording(true);
  {
    perfbench::SpanScope one(SpanKind::kOp);
    perfbench::SpanScope two(SpanKind::kOp);
    EXPECT_EQ(two.id(), kNoParent);
  }
  arena.set_recording(false);
  EXPECT_EQ(arena.recorded().size(), 1u);
  EXPECT_EQ(arena.dropped(), 1u);
}

void histogram_window_delta_is_exact() {
  parmem::Histogram cumulative;
  for (std::uint64_t v : {5u, 700u, 90000u}) {
    cumulative.record(v);
  }
  const parmem::Histogram before = cumulative;
  parmem::Histogram window_only;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    cumulative.record(i * 1000);
    window_only.record(i * 1000);
  }
  const perfbench::HistogramDelta d(cumulative, before);
  EXPECT_EQ(d.count(), 200u);
  EXPECT_EQ(d.sum_ns(), window_only.sum_ns());
  // Same bucket as the window-only histogram (which clamps to its exact
  // maximum; the delta reports the bucket bound).
  EXPECT_EQ(parmem::Histogram::bucket_of(d.percentile_ns(0.99)),
            parmem::Histogram::bucket_of(window_only.percentile_ns(0.99)));
  EXPECT_EQ(parmem::Histogram::bucket_of(d.percentile_ns(0.5)),
            parmem::Histogram::bucket_of(window_only.percentile_ns(0.5)));
  const perfbench::HistogramDelta empty(cumulative, cumulative);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.percentile_ns(0.99), 0u);
}

}  // namespace

int main() {
  exact_percentiles_on_known_samples();
  self_time_subtracts_union_of_children();
  recorded_stolen_branch_names_its_fork();
  histogram_window_delta_is_exact();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
