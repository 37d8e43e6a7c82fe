#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace perfbench {

/// \brief Log-linear (HDR-style) latency histogram: every power-of-two
/// range [2^k, 2^(k+1)) is split into 32 equal sub-buckets, and values
/// below 32 get one bucket each. A bucket is at most 1/32 of its lower
/// bound wide, so a quantile read from the bucket holding the exact order
/// statistic is within ~3% of it.
///
/// A fixed array, single writer: each spout or bolt owns one and the
/// benchmark merges them after the topology stops.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  static size_t IndexOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    return kSub + static_cast<size_t>(shift) * kSub +
           static_cast<size_t>((v >> shift) - kSub);
  }
  static uint64_t LowerBound(size_t index) {
    if (index < kSub) return index;
    const size_t shift = (index - kSub) / kSub;
    return (kSub + (index - kSub) % kSub) << shift;
  }
  static uint64_t Width(size_t index) {
    return index < kSub ? 1 : uint64_t{1} << ((index - kSub) / kSub);
  }

  void Record(uint64_t v) {
    ++buckets_[IndexOf(v)];
    ++count_;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank position of quantile q (1-based); 0 when empty.
  uint64_t RankOf(double q) const {
    if (count_ == 0) return 0;
    const double r = std::ceil(q * static_cast<double>(count_));
    return std::clamp<uint64_t>(static_cast<uint64_t>(r), 1, count_);
  }

  /// Samples strictly above the q-quantile's rank: a percentile is worth
  /// reporting only when at least ten samples lie beyond it.
  uint64_t SamplesBeyond(double q) const { return count_ - RankOf(q); }

  /// The q-quantile: the nearest-rank sample's bucket, interpolated
  /// linearly by the rank's position among that bucket's samples and
  /// clamped to the observed range. It lies in the same bucket as the
  /// exact order statistic, so it is off by less than 1/32 of it. 0 when
  /// empty.
  double Quantile(double q) const {
    const uint64_t rank = RankOf(q);
    if (rank == 0) return 0;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + buckets_[i] >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(buckets_[i]);
        const double v = static_cast<double>(LowerBound(i)) +
                         within * static_cast<double>(Width(i));
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
      seen += buckets_[i];
    }
    return static_cast<double>(max_);
  }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
