// Tests for the benchmark's own helpers: the log-linear latency
// histogram, and the seeded inputs and reference tallies the correctness
// checks rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "histogram.h"
#include "inputs.h"

namespace perfbench {
namespace {

uint64_t ExactQuantile(const std::vector<uint64_t>& sorted, double q) {
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[rank - 1];
}

TEST(LatencyHistogram, BucketsAreContiguousAndNarrow) {
  for (size_t i = 1; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::LowerBound(i),
              LatencyHistogram::LowerBound(i - 1) +
                  LatencyHistogram::Width(i - 1))
        << i;
    // Width at most 1/32 of the bucket's lower bound (beyond the exact
    // buckets).
    if (i >= LatencyHistogram::kSub) {
      EXPECT_LE(LatencyHistogram::Width(i) * 32,
                LatencyHistogram::LowerBound(i));
    }
  }
  for (uint64_t v : {uint64_t{0}, uint64_t{31}, uint64_t{32}, uint64_t{63},
                     uint64_t{64}, uint64_t{1000003}, UINT64_MAX}) {
    const size_t i = LatencyHistogram::IndexOf(v);
    ASSERT_LT(i, LatencyHistogram::kBuckets);
    EXPECT_GE(v, LatencyHistogram::LowerBound(i));
    EXPECT_LE(v - LatencyHistogram::LowerBound(i),
              LatencyHistogram::Width(i) - 1);
  }
}

TEST(LatencyHistogram, QuantilesWithinThreePercentOfExact) {
  // Log-normal latencies spanning microseconds to hundreds of
  // milliseconds, in nanoseconds.
  std::mt19937_64 gen(7);
  std::lognormal_distribution<double> dist(std::log(200000.0), 1.5);
  std::vector<uint64_t> values(200000);
  LatencyHistogram h;
  for (uint64_t& v : values) {
    v = static_cast<uint64_t>(dist(gen)) + 1;
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
    const double exact = static_cast<double>(ExactQuantile(values, q));
    const double got = h.Quantile(q);
    EXPECT_LE(std::abs(got - exact) / exact, 0.03) << "q=" << q;
  }
  EXPECT_EQ(h.count(), values.size());
}

TEST(LatencyHistogram, SmallValuesAreExactAndMergeAdds) {
  LatencyHistogram a, b;
  for (uint64_t v = 0; v < 32; ++v) a.Record(v);
  for (uint64_t v = 0; v < 32; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.count(), 64u);
  // Width-1 buckets below 32: the quantile stays inside the bucket of
  // the exact order statistic, [v, v + 1).
  for (const auto& [q, v] : {std::pair{0.0, 0.0}, std::pair{0.5, 15.0},
                             std::pair{1.0, 31.0}}) {
    EXPECT_GE(a.Quantile(q), v) << q;
    EXPECT_LT(a.Quantile(q), v + 1) << q;
  }
}

TEST(LatencyHistogram, SamplesBeyondGatesTailPercentiles) {
  LatencyHistogram h;
  for (int i = 0; i < 99999; ++i) h.Record(1000);
  // 99,999 samples: rank(p99.99) = 99,990, so 9 lie beyond it — too few.
  EXPECT_EQ(h.SamplesBeyond(0.9999), 9u);
  h.Record(1000);
  EXPECT_EQ(h.SamplesBeyond(0.9999), 10u);
  EXPECT_EQ(LatencyHistogram().Quantile(0.5), 0);
}

TEST(Inputs, SameSeedSameInputsOtherSeedOtherInputs) {
  EXPECT_EQ(MakeDictionary(5000, 1), MakeDictionary(5000, 1));
  EXPECT_NE(MakeDictionary(5000, 1), MakeDictionary(5000, 2));
  const auto dict = MakeDictionary(20000, 4);
  EXPECT_EQ(std::set<std::string>(dict.begin(), dict.end()).size(), 20000u);
  for (const std::string& w : dict) {
    EXPECT_GE(w.size(), 4u);
    EXPECT_LE(w.size(), 12u);
  }
  EXPECT_EQ(MakeDraws(1000, 450000, 9, 1), MakeDraws(1000, 450000, 9, 1));
  EXPECT_NE(MakeDraws(1000, 450000, 9, 1), MakeDraws(1000, 450000, 9, 2));
  EXPECT_EQ(MakePayloads(4, 1024, 5), MakePayloads(4, 1024, 5));
}

TEST(Inputs, ReferenceTallyMatchesBruteForceForEachSeed) {
  for (uint64_t seed : {1, 2, 3, 42}) {
    const size_t cycle = 5000;
    const auto draws = MakeDraws(cycle, 1000, seed, 1);
    for (uint64_t emitted : {uint64_t{0}, uint64_t{1}, uint64_t{4999},
                             uint64_t{5000}, uint64_t{12345}}) {
      std::vector<uint64_t> brute(1000, 0);
      for (uint64_t i = 0; i < emitted; ++i) ++brute[draws[i % cycle]];
      const auto tally = ReferenceTally(1000, seed, 1, cycle, emitted);
      EXPECT_EQ(tally, brute) << "seed " << seed << " emitted " << emitted;
      EXPECT_EQ(std::accumulate(tally.begin(), tally.end(), uint64_t{0}),
                emitted);
    }
  }
}

}  // namespace
}  // namespace perfbench
