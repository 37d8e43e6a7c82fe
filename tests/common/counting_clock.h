#ifndef HERON_TESTS_COMMON_COUNTING_CLOCK_H_
#define HERON_TESTS_COMMON_COUNTING_CLOCK_H_

// A virtual clock that counts its reads, for tests that pin how often a
// code path reads the clock.

#include <atomic>
#include <cstdint>

#include "common/clock.h"

namespace heron {

/// \brief A SimClock wrapper that counts every NowNanos() call. With
/// `nanos_per_read` > 0 each read first advances time by that much, so
/// no two reads return the same value and a reused reading can be told
/// apart from a fresh one.
class CountingClock final : public Clock {
 public:
  explicit CountingClock(int64_t nanos_per_read = 0)
      : nanos_per_read_(nanos_per_read) {}

  int64_t NowNanos() const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    if (nanos_per_read_ > 0) sim_.AdvanceNanos(nanos_per_read_);
    return sim_.NowNanos();
  }

  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }

 private:
  const int64_t nanos_per_read_;
  mutable SimClock sim_;
  mutable std::atomic<uint64_t> reads_{0};
};

}  // namespace heron

#endif  // HERON_TESTS_COMMON_COUNTING_CLOCK_H_
