#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

/// Exact order statistics over every recorded sample. Quantiles are given in
/// parts per million so that rank arithmetic is integer and exact: the
/// nearest-rank quantile q of n sorted samples is the sample of 1-based rank
/// ceil(q * n).
inline constexpr uint64_t kPpm = 1000000;

/// 1-based nearest rank of quantile `q_ppm` among `n` samples (n >= 1).
inline size_t NearestRank(size_t n, uint64_t q_ppm) {
  const uint64_t rank = (q_ppm * n + kPpm - 1) / kPpm;
  return static_cast<size_t>(std::clamp<uint64_t>(rank, 1, n));
}

/// Samples strictly beyond the nearest-rank quantile.
inline size_t SamplesBeyond(size_t n, uint64_t q_ppm) {
  return n == 0 ? 0 : n - NearestRank(n, q_ppm);
}

/// A quantile is reported only when at least this many samples lie beyond
/// it; below that, one outlier decides the value.
inline constexpr size_t kMinSamplesBeyond = 10;

inline bool QuantileSupported(size_t n, uint64_t q_ppm) {
  return n > 0 && SamplesBeyond(n, q_ppm) >= kMinSamplesBeyond;
}

/// The highest quantile (ppm, rounded down) with at least
/// kMinSamplesBeyond samples beyond it; 0 when n is too small for any.
inline uint64_t HighestSupportedQuantile(size_t n) {
  if (n <= kMinSamplesBeyond) return 0;
  // Largest q with ceil(q * n) <= n - 10, i.e. q = (n - 10) / n.
  return (n - kMinSamplesBeyond) * kPpm / n;
}

/// Nearest-rank quantile of an ascending-sorted sample.
template <typename T>
T QuantileSorted(const std::vector<T>& sorted, uint64_t q_ppm) {
  return sorted[NearestRank(sorted.size(), q_ppm) - 1];
}

/// Summary of one latency population in microseconds.
struct LatencySummary {
  size_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool p99_supported = false;
  uint64_t top_q_ppm = 0;  ///< HighestSupportedQuantile(count)
  double top_us = 0.0;     ///< value at top_q_ppm
  double mean_us = 0.0;
  size_t slices = 1;  ///< slices the percentiles are medians over
};

/// Sorts `ns` in place and summarizes it.
inline LatencySummary Summarize(std::vector<uint32_t>* ns) {
  LatencySummary s;
  s.count = ns->size();
  if (ns->empty()) return s;
  std::sort(ns->begin(), ns->end());
  double sum = 0.0;
  for (uint32_t v : *ns) sum += v;
  s.mean_us = sum / static_cast<double>(ns->size()) / 1e3;
  s.p50_us = QuantileSorted(*ns, 500000) / 1e3;
  s.p99_us = QuantileSorted(*ns, 990000) / 1e3;
  s.p99_supported = QuantileSupported(ns->size(), 990000);
  s.top_q_ppm = HighestSupportedQuantile(ns->size());
  if (s.top_q_ppm > 0) s.top_us = QuantileSorted(*ns, s.top_q_ppm) / 1e3;
  return s;
}

/// A measured phase's latencies are cut into slices of at least
/// kMinSliceSamples samples each, so that every slice's p99 has
/// kMinSamplesBeyond samples beyond it, and into at most kMaxSlices slices
/// (about 0.1 s each in a 30-s phase: a busy host stalls in bursts, and the
/// shorter the slices, the more of them a burst misses).
inline constexpr size_t kMinSliceSamples = 1000;
inline constexpr size_t kMaxSlices = 301;

/// Samples in slice `k` of `slices`: the k-th 1/slices of every
/// connection's samples.
inline size_t SliceSize(
    const std::vector<std::vector<uint32_t>>& per_connection, size_t slices,
    size_t k) {
  size_t size = 0;
  for (const std::vector<uint32_t>& samples : per_connection) {
    const size_t n = samples.size();
    size += n * (k + 1) / slices - n * k / slices;
  }
  return size;
}

/// The number of slices: the largest odd number, at most kMaxSlices, for
/// which every slice holds kMinSliceSamples samples; 1 when none does (the
/// whole phase is then one slice).
inline size_t SliceCount(
    const std::vector<std::vector<uint32_t>>& per_connection) {
  size_t total = 0;
  for (const std::vector<uint32_t>& samples : per_connection) {
    total += samples.size();
  }
  size_t slices = std::min(kMaxSlices, total / kMinSliceSamples);
  if (slices % 2 == 0 && slices > 0) --slices;
  for (; slices > 1; slices -= 2) {
    bool full = true;
    for (size_t k = 0; k < slices && full; ++k) {
      full = SliceSize(per_connection, slices, k) >= kMinSliceSamples;
    }
    if (full) return slices;
  }
  return 1;
}

/// Summarizes a phase whose samples are given per connection, in reply
/// order, cut into SliceCount() slices (odd, so the median of the slices'
/// percentiles is one of them). p50 and p99 are the medians of the slices'
/// own p50 and p99, so a stall of the machine that touches fewer than half
/// of the slices moves neither; the p99 is supported only when it is in
/// every slice. Count, mean and the top quantile cover all samples.
inline LatencySummary SummarizeSlices(
    const std::vector<std::vector<uint32_t>>& per_connection) {
  const size_t slices = SliceCount(per_connection);
  std::vector<uint32_t> all;
  std::vector<double> p50s;
  std::vector<double> p99s;
  bool p99_supported = true;
  for (size_t k = 0; k < slices; ++k) {
    std::vector<uint32_t> slice;
    for (const std::vector<uint32_t>& samples : per_connection) {
      const size_t n = samples.size();
      slice.insert(slice.end(), samples.begin() + n * k / slices,
                   samples.begin() + n * (k + 1) / slices);
    }
    all.insert(all.end(), slice.begin(), slice.end());
    const LatencySummary s = Summarize(&slice);
    p50s.push_back(s.p50_us);
    p99s.push_back(s.p99_us);
    p99_supported = p99_supported && s.p99_supported;
  }
  LatencySummary s = Summarize(&all);
  std::sort(p50s.begin(), p50s.end());
  std::sort(p99s.begin(), p99s.end());
  s.slices = slices;
  s.p50_us = p50s[slices / 2];
  s.p99_us = p99s[slices / 2];
  s.p99_supported = p99_supported;
  return s;
}

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
