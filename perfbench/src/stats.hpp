#pragma once

// The benchmark's own statistics, kept free of the program's headers so
// the unit tests in perfbench/tests exercise exactly what the benchmark
// reports:
//
//   - tail_percentile: the highest percentile of a fixed ladder that
//     still has at least ten samples beyond it (a p99 over 200 samples
//     would rest on two values);
//   - self times: a span's duration minus the part of it that its child
//     spans cover;
//   - thread tiling: how much of a thread's life its top-level spans
//     cover, the check that the per-layer times account for the wall.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n,
                                                double q) noexcept {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

/// Nearest-rank quantile of an already sorted sample; 0 when empty.
[[nodiscard]] inline double quantile_sorted(const std::vector<double>& sorted,
                                            double q) noexcept {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

[[nodiscard]] inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

struct TailPercentile {
  double q = 0.0;      ///< the percentile used, as a fraction (0.99)
  double value = 0.0;  ///< its nearest-rank value
  std::size_t count = 0;
  std::size_t beyond = 0;  ///< samples strictly above the rank
};

/// Minimum number of samples a reported tail must have beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 that has at least
/// kMinBeyond of `count` samples beyond it; 0 when even the median has
/// fewer.
[[nodiscard]] inline double tail_quantile(std::size_t count) noexcept {
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (samples_beyond(count, q) >= kMinBeyond) return q;
  }
  return 0.0;
}

/// tail_quantile of the samples and its nearest-rank value.
[[nodiscard]] inline TailPercentile tail_percentile(
    std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  TailPercentile tail;
  tail.count = samples.size();
  tail.q = tail_quantile(samples.size());
  if (tail.q > 0.0) {
    tail.value = quantile_sorted(samples, tail.q);
    tail.beyond = samples_beyond(samples.size(), tail.q);
  }
  return tail;
}

/// Total length of the union of [begin, end) intervals clipped to
/// [lo, hi).
[[nodiscard]] inline std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
    std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t cursor = lo;
  for (auto [b, e] : intervals) {
    b = std::max(b, cursor);
    e = std::min(e, hi);
    if (e > b) {
      total += e - b;
      cursor = e;
    }
  }
  return total;
}

/// What self_times needs of a span: its interval and the index of its
/// parent in the same vector (-1 for a top-level span).
struct SpanExtent {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::int32_t parent = -1;
};

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the span). Grandchildren are already
/// inside their parent, so only direct children are subtracted.
[[nodiscard]] inline std::vector<std::uint64_t> self_times(
    const std::vector<SpanExtent>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const SpanExtent& s : spans) {
    if (s.parent >= 0 &&
        static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanExtent& s = spans[i];
    if (s.t1 <= s.t0) continue;
    self[i] = (s.t1 - s.t0) - covered_ns(std::move(kids[i]), s.t0, s.t1);
  }
  return self;
}

/// Share of a thread's life [begin, end) covered by its top-level spans
/// (1 when the window is empty).
[[nodiscard]] inline double tiling_coverage(
    const std::vector<SpanExtent>& spans, std::uint64_t begin,
    std::uint64_t end) {
  if (end <= begin) return 1.0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> top;
  for (const SpanExtent& s : spans) {
    if (s.parent < 0) top.emplace_back(s.t0, s.t1);
  }
  return static_cast<double>(covered_ns(std::move(top), begin, end)) /
         static_cast<double>(end - begin);
}

/// Tolerance of the tiling check: the untraced remainder of a thread's
/// life (loop bookkeeping between spans) may be at most this share.
inline constexpr double kTilingTolerance = 0.05;

[[nodiscard]] inline bool tiles(double coverage) noexcept {
  return coverage >= 1.0 - kTilingTolerance;
}

}  // namespace perfbench
