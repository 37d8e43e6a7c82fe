#include "serde/message_pool.h"

#include <gtest/gtest.h>

#include <vector>

namespace heron {
namespace serde {
namespace {

TEST(BufferPoolTest, RecyclesCapacity) {
  BufferPool pool;
  Buffer buffer = pool.Acquire();
  buffer.reserve(4096);
  const size_t capacity = buffer.capacity();
  pool.Release(std::move(buffer));
  Buffer again = pool.Acquire();
  EXPECT_GE(again.capacity(), capacity);  // Capacity survived the reuse.
  EXPECT_TRUE(again.empty());             // Contents did not.
  EXPECT_EQ(pool.stats().reuses, 1u);
}

TEST(BufferPoolTest, MaxIdleCapsRetentionAndCountsEvictions) {
  BufferPool pool(/*max_idle=*/2);
  std::vector<Buffer> out;
  for (int i = 0; i < 5; ++i) out.push_back(pool.Acquire());
  for (auto& b : out) pool.Release(std::move(b));
  EXPECT_EQ(pool.idle_count(), 2u);
  EXPECT_EQ(pool.stats().evicted, 3u);
  EXPECT_EQ(pool.stats().returns, 5u);
}

TEST(BufferPoolTest, RetainedBytesBudgetBoundsFreelist) {
  // 3 × 4KB fits an 8KB budget only twice: the third release is evicted
  // even though the idle-count cap has room.
  BufferPool pool(/*max_idle=*/64, /*max_retained_bytes=*/8192,
                  /*max_buffer_bytes=*/1u << 20);
  std::vector<Buffer> out;
  for (int i = 0; i < 3; ++i) {
    Buffer b = pool.Acquire();
    b.reserve(4096);
    out.push_back(std::move(b));
  }
  for (auto& b : out) pool.Release(std::move(b));
  EXPECT_LE(pool.retained_bytes(), pool.max_retained_bytes());
  EXPECT_GE(pool.stats().evicted, 1u);
  // Re-acquiring returns the budget to the pool.
  Buffer back = pool.Acquire();
  EXPECT_GE(back.capacity(), 4096u);
  EXPECT_LT(pool.retained_bytes(), 8192u);
}

TEST(BufferPoolTest, OversizeBuffersAreNeverRetained) {
  // A buffer that ballooned past max_buffer_bytes must not poison the
  // freelist (it would hand every future sender a giant allocation).
  BufferPool pool(/*max_idle=*/64, /*max_retained_bytes=*/64u << 20,
                  /*max_buffer_bytes=*/4096);
  Buffer big = pool.Acquire();
  big.reserve(1u << 20);
  pool.Release(std::move(big));
  EXPECT_EQ(pool.idle_count(), 0u);
  EXPECT_EQ(pool.stats().evicted, 1u);
  Buffer small = pool.Acquire();
  small.reserve(1024);
  pool.Release(std::move(small));
  EXPECT_EQ(pool.idle_count(), 1u);
}

TEST(BufferPoolTest, HighWaterTracksPeakIdleDepth) {
  BufferPool pool(/*max_idle=*/16);
  std::vector<Buffer> out;
  for (int i = 0; i < 6; ++i) out.push_back(pool.Acquire());
  for (auto& b : out) pool.Release(std::move(b));
  EXPECT_EQ(pool.stats().high_water, 6u);
  // Draining the pool does not lower the recorded peak.
  Buffer b1 = pool.Acquire();
  Buffer b2 = pool.Acquire();
  EXPECT_EQ(pool.stats().high_water, 6u);
  pool.Release(std::move(b1));
  pool.Release(std::move(b2));
}

TEST(BufferPoolTest, SteadyStateStopsAllocating) {
  BufferPool pool;
  // Warm with 8 buffers, then churn: no further allocations.
  std::vector<Buffer> warm;
  for (int i = 0; i < 8; ++i) warm.push_back(pool.Acquire());
  for (auto& b : warm) pool.Release(std::move(b));
  const uint64_t baseline = pool.stats().allocations;
  for (int round = 0; round < 100; ++round) {
    Buffer b = pool.Acquire();
    b.append(64, 'x');
    pool.Release(std::move(b));
  }
  EXPECT_EQ(pool.stats().allocations, baseline);
}

}  // namespace
}  // namespace serde
}  // namespace heron
