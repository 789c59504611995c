// Known-input checks of the benchmark's percentile code. Built as its own
// executable; run.py runs it after every build and refuses to measure when
// it fails.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<uint32_t> Iota(uint32_t n) {
  std::vector<uint32_t> v(n);
  for (uint32_t i = 0; i < n; ++i) v[i] = i + 1;
  return v;
}

}  // namespace

int main() {
  using namespace servebench;  // NOLINT(build/namespaces)

  // Nearest rank: ceil(q * n), clamped to [1, n].
  Check(NearestRank(100, 500000) == 50, "rank p50 of 100");
  Check(NearestRank(101, 500000) == 51, "rank p50 of 101");
  Check(NearestRank(100, 990000) == 99, "rank p99 of 100");
  Check(NearestRank(1000, 990000) == 990, "rank p99 of 1000");
  Check(NearestRank(999, 990000) == 990, "rank p99 of 999");
  Check(NearestRank(1, 990000) == 1, "rank of a single sample");
  Check(NearestRank(10, 0) == 1, "rank p0 clamps to 1");
  Check(NearestRank(10, kPpm) == 10, "rank p100 is the max");

  // Values on 1..n.
  {
    std::vector<uint32_t> v = Iota(1000);
    Check(QuantileSorted(v, 500000) == 500, "p50 of 1..1000");
    Check(QuantileSorted(v, 990000) == 990, "p99 of 1..1000");
    Check(QuantileSorted(v, 999000) == 999, "p99.9 of 1..1000");
  }

  // p99 needs 10 samples beyond it: n = 1000 has exactly 10, n = 999 has 9.
  Check(QuantileSupported(1000, 990000), "p99 supported at n=1000");
  Check(!QuantileSupported(999, 990000), "p99 unsupported at n=999");
  Check(!QuantileSupported(100, 990000), "p99 unsupported at n=100");
  Check(QuantileSupported(20, 500000), "p50 supported at n=20");
  Check(!QuantileSupported(0, 500000), "nothing supported at n=0");

  // Highest supported quantile: (n - 10) / n, with >= 10 samples beyond.
  Check(HighestSupportedQuantile(10) == 0, "no quantile at n=10");
  Check(HighestSupportedQuantile(11) == 90909, "top quantile at n=11");
  Check(HighestSupportedQuantile(1000) == 990000, "top quantile at n=1000");
  Check(HighestSupportedQuantile(100000) == 999900,
        "top quantile at n=100000");
  for (size_t n : {11u, 57u, 999u, 1000u, 1001u, 123457u}) {
    const uint64_t q = HighestSupportedQuantile(n);
    Check(SamplesBeyond(n, q) >= kMinSamplesBeyond,
          "top quantile keeps 10 samples beyond");
    Check(SamplesBeyond(n, q + 1) < kMinSamplesBeyond ||
              NearestRank(n, q + 1) == NearestRank(n, q),
          "top quantile is the highest rank that qualifies");
  }

  // Summaries sort their input and report in microseconds.
  {
    std::vector<uint32_t> ns;
    for (uint32_t i = 2000; i >= 1; --i) ns.push_back(i * 1000);  // 1..2000 us
    const LatencySummary s = Summarize(&ns);
    Check(s.count == 2000, "summary count");
    Check(s.p50_us == 1000.0, "summary p50");
    Check(s.p99_us == 1980.0, "summary p99");
    Check(s.p99_supported, "summary p99 supported");
    Check(s.top_q_ppm == 995000, "summary top quantile");
    Check(s.top_us == 1990.0, "summary top value");
    Check(s.mean_us == 1000.5, "summary mean");
  }
  {
    std::vector<uint32_t> ns = {7000, 3000, 5000};
    const LatencySummary s = Summarize(&ns);
    Check(s.p50_us == 5.0, "p50 of three");
    Check(!s.p99_supported, "p99 of three unsupported");
    Check(s.top_q_ppm == 0, "no top quantile of three");
  }

  // Slice count: the largest odd count up to kMaxSlices whose every slice
  // holds kMinSliceSamples samples.
  {
    const auto conns = [](std::vector<size_t> sizes) {
      std::vector<std::vector<uint32_t>> per_connection;
      for (size_t n : sizes) per_connection.emplace_back(n, 1000);
      return per_connection;
    };
    Check(SliceCount(conns({999})) == 1, "too few samples: one slice");
    Check(SliceCount(conns({2999})) == 1, "2 slices is even: one slice");
    Check(SliceCount(conns({3000})) == 3, "3000 samples: three slices");
    Check(SliceCount(conns({5000, 5000})) == 9, "10000 samples: nine slices");
    Check(SliceCount(conns({11000})) == 11, "11000 samples: eleven slices");
    Check(SliceCount(conns({10999})) == 9,
          "a slice of 999 drops the count to the next odd one");
    Check(SliceCount(conns({500000, 500000})) == kMaxSlices,
          "many samples: kMaxSlices");
    Check(SliceCount(conns({})) == 1, "no samples: one slice");
    // Unequal connections: slices take each connection's k-th share, and
    // 11 slices of 9000 + 2000 would hold 818 + 181 = 999.
    Check(SliceCount(conns({9000, 2000})) == 9, "unequal connections");
  }

  // Slices: slice k is the k-th 1/slices of each connection's samples, and
  // the percentiles are the medians of the slices' own.
  {
    // Two connections of 5500 samples, 2..1000 us in every slice of 1000,
    // with a stall (1 s replies) filling 10% of connection 0's second
    // slice: 11 slices.
    std::vector<std::vector<uint32_t>> per_connection(2);
    for (auto& samples : per_connection) {
      for (size_t k = 0; k < 11; ++k) {
        for (uint32_t i = 1; i <= 500; ++i) samples.push_back(i * 2000);
      }
    }
    for (size_t i = 500; i < 550; ++i) per_connection[0][i] = 1000000000;
    const LatencySummary s = SummarizeSlices(per_connection);
    Check(s.slices == 11, "eleven slices of 1000");
    Check(s.count == 11000, "sliced count covers all samples");
    Check(s.p50_us == 500.0, "sliced p50 is the median slice's");
    Check(s.p99_us == 990.0, "a stall in one slice does not move the p99");
    Check(s.p99_supported, "sliced p99 supported with 1000 per slice");
    Check(s.top_q_ppm == 999090 && s.top_us == 1000000.0,
          "the top quantile still shows the stall");
  }
  {
    // Slice medians: slice k of one connection is uniform at (k + 1) ms.
    std::vector<uint32_t> samples;
    for (uint32_t k = 0; k < 5; ++k) {
      for (int i = 0; i < 1000; ++i) samples.push_back((k + 1) * 1000000);
    }
    const LatencySummary s = SummarizeSlices({samples});
    Check(s.slices == 5, "five slices of 1000");
    Check(s.p50_us == 3000.0 && s.p99_us == 3000.0,
          "percentiles are the median of the slices'");
    // A stall in two of five slices moves neither percentile; in three it
    // moves both.
    for (size_t i = 0; i < 2000; ++i) samples[i] = 1000000000;
    Check(SummarizeSlices({samples}).p99_us == 5000.0,
          "stalls in two of five slices are outvoted");
    for (size_t i = 2000; i < 3000; ++i) samples[i] = 1000000000;
    Check(SummarizeSlices({samples}).p50_us == 1000000.0,
          "stalls in three of five slices decide");
  }
  {
    // Under 1000 samples the phase is one slice, whose p99 lacks support.
    std::vector<uint32_t> samples(999, 5000);
    const LatencySummary s = SummarizeSlices({samples});
    Check(s.slices == 1 && !s.p99_supported,
          "p99 of 999 samples is unsupported");
    Check(s.p50_us == 5.0, "one-slice p50 is the plain p50");
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d percentile checks failed\n", failures);
    return 1;
  }
  std::printf("percentile self-test: ok\n");
  return 0;
}
