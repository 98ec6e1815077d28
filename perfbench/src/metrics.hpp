// The benchmark's own arithmetic, kept free of any runtime so the
// self-tests (perfbench/tests/test_metrics.cpp) can pin it on known
// inputs:
//
//   * exact nearest-rank percentiles over every recorded op latency
//     (no log buckets: core/histogram.hpp's 6.25 % buckets made p50
//     flip between neighbouring bucket bounds across identical runs);
//   * span self time -- a span's duration minus the part of its
//     interval covered by the UNION of its children, so a stolen
//     branch that ran concurrently with its sibling on another thread
//     is not subtracted twice;
//   * window deltas of the process-wide, cumulative pause and
//     gate-stall histograms of core/trace.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/histogram.hpp"

namespace perfbench {

// Nearest-rank percentile: the ceil(q * n)-th smallest sample (1-based),
// q in [0, 1]. `sorted` must be ascending; returns 0 for no samples.
inline std::uint64_t exact_percentile(const std::vector<std::uint64_t>& sorted,
                                      double q) {
  if (sorted.empty()) {
    return 0;
  }
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(q * n);
  if (static_cast<double>(rank) < q * n) {
    ++rank;  // ceil without floating-point ceil's rounding surprises
  }
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// Median of a small sample (the setup repetitions); mean of the middle
// pair for even counts.
inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---- spans ------------------------------------------------------------------

enum class SpanKind : std::uint8_t { kRun, kOp, kFork2, kBranch };

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

// One recorded interval. `id` is the span's index in the recording;
// `parent` is the id of the span that caused it (kNoParent for roots),
// which for a stolen branch lives on another thread.
struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  SpanKind kind = SpanKind::kOp;
  std::uint8_t thread = 0;
};

// Self time of every span, indexed like `spans` (span i has id i):
// duration minus the length of the union of its children's intervals,
// each clipped to the parent's interval.
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  // Counting sort of child ids by parent, so each parent's children are
  // contiguous without a per-parent allocation.
  std::vector<std::uint32_t> first(n + 1, 0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < n) {
      ++first[s.parent + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    first[i + 1] += first[i];
  }
  std::vector<std::uint32_t> children(first[n]);
  std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t p = spans[i].parent;
    if (p != kNoParent && p < n) {
      children[fill[p]++] = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<std::uint64_t> self(n);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (std::size_t p = 0; p < n; ++p) {
    const Span& ps = spans[p];
    const std::uint64_t dur = ps.end_ns - ps.start_ns;
    iv.clear();
    for (std::uint32_t k = first[p]; k < first[p + 1]; ++k) {
      const Span& c = spans[children[k]];
      const std::uint64_t lo = std::max(c.start_ns, ps.start_ns);
      const std::uint64_t hi = std::min(c.end_ns, ps.end_ns);
      if (lo < hi) {
        iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) {
        covered += cur_hi - cur_lo;
      }
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) {
      covered += cur_hi - cur_lo;
    }
    self[p] = dur - covered;
  }
  return self;
}

// ---- cumulative histogram deltas ------------------------------------------

// Bucket-wise difference `after - before` of two snapshots of one
// cumulative histogram (core/trace.hpp's are process-wide and never
// reset), i.e. exactly the samples recorded between the two snapshots.
// The maximum is not differentiable, so percentiles report the bucket's
// upper bound unclamped.
class HistogramDelta {
 public:
  HistogramDelta() = default;
  HistogramDelta(const parmem::Histogram& after,
                 const parmem::Histogram& before)
      : counts_(parmem::Histogram::kBuckets) {
    for (unsigned i = 0; i < parmem::Histogram::kBuckets; ++i) {
      counts_[i] = after.bucket_count(i) - before.bucket_count(i);
    }
    count_ = after.count() - before.count();
    sum_ns_ = after.sum_ns() - before.sum_ns();
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum_ns() const { return sum_ns_; }

  // Upper bound of the bucket holding the ceil(q * count)-th sample.
  std::uint64_t percentile_ns(double q) const {
    if (count_ == 0) {
      return 0;
    }
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) {
      ++rank;
    }
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t cum = 0;
    for (unsigned i = 0; i < counts_.size(); ++i) {
      cum += counts_[i];
      if (cum >= rank) {
        return parmem::Histogram::bucket_upper(i);
      }
    }
    return 0;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

}  // namespace perfbench
