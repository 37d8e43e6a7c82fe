#include "smgr/tuple_cache.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "proto/messages.h"

namespace heron {
namespace smgr {
namespace {

serde::Buffer TupleBytes(const std::string& word) {
  proto::TupleDataMsg msg;
  msg.tuple_key = 1;
  msg.values.emplace_back(word);
  return msg.SerializeAsBuffer();
}

class TupleCacheTest : public ::testing::Test {
 protected:
  serde::BufferPool pool_;
};

TEST_F(TupleCacheTest, DrainedBatchesParseWithCorrectHeaders) {
  TupleCache cache({10, 1 << 20}, &pool_);
  cache.Add(/*dest=*/5, /*src=*/1, "default", "word", TupleBytes("a"));
  cache.Add(5, 1, "default", "word", TupleBytes("b"));
  cache.Add(9, 1, "default", "word", TupleBytes("c"));

  auto batches = cache.DrainAll();
  ASSERT_EQ(batches.size(), 2u);
  std::map<TaskId, size_t> counts;
  for (const auto& batch : batches) {
    proto::TupleBatchMsg parsed;
    ASSERT_TRUE(parsed.ParseFromBytes(batch.bytes).ok());
    EXPECT_EQ(parsed.dest_task, batch.dest);
    EXPECT_EQ(parsed.src_task, 1);
    EXPECT_EQ(parsed.stream, "default");
    EXPECT_EQ(parsed.src_component, "word");
    counts[batch.dest] = parsed.tuples.size();
    EXPECT_EQ(batch.tuple_count, parsed.tuples.size());
    // Lazy peek agrees with the header.
    EXPECT_EQ(*proto::PeekDestTask(batch.bytes), batch.dest);
  }
  EXPECT_EQ(counts[5], 2u);
  EXPECT_EQ(counts[9], 1u);
}

TEST_F(TupleCacheTest, ConservationNoTupleLostOrDuplicated) {
  TupleCache cache({10, 64 << 20}, &pool_);
  Random rng(3);
  std::map<TaskId, uint64_t> sent;
  for (int round = 0; round < 20; ++round) {
    const int adds = 1 + static_cast<int>(rng.NextBelow(300));
    for (int i = 0; i < adds; ++i) {
      const TaskId dest = static_cast<TaskId>(rng.NextBelow(16));
      const TaskId src = static_cast<TaskId>(rng.NextBelow(4));
      cache.Add(dest, src, "default", "word", TupleBytes("w"));
      ++sent[dest];
    }
    for (auto& batch : cache.DrainAll()) {
      proto::TupleBatchMsg parsed;
      ASSERT_TRUE(parsed.ParseFromBytes(batch.bytes).ok());
      sent[batch.dest] -= parsed.tuples.size();
    }
  }
  for (const auto& [dest, remaining] : sent) {
    EXPECT_EQ(remaining, 0u) << "dest " << dest;
  }
  EXPECT_EQ(cache.pending_bytes(), 0u);
  EXPECT_EQ(cache.pending_batches(), 0u);
}

TEST_F(TupleCacheTest, SizeThresholdSignalsDrain) {
  TupleCache cache({1000, /*drain_size_bytes=*/256}, &pool_);
  bool tripped = false;
  for (int i = 0; i < 100 && !tripped; ++i) {
    tripped = cache.Add(1, 1, "default", "word", TupleBytes("wordwordword"));
  }
  EXPECT_TRUE(tripped);
  EXPECT_GE(cache.pending_bytes(), 256u);
}

TEST_F(TupleCacheTest, TimerArming) {
  TupleCache cache({10, 1 << 20}, &pool_);
  cache.ArmTimer(/*now_nanos=*/1000);
  EXPECT_EQ(cache.next_drain_nanos(), 1000 + 10 * 1000000);
}

TEST_F(TupleCacheTest, StreamCollisionFlushesEagerly) {
  TupleCache cache({10, 1 << 20}, &pool_);
  cache.Add(3, 1, "default", "word", TupleBytes("a"));
  // Same (dest, src) pair, different stream → old batch flushes on the
  // next drain without mixing streams.
  cache.Add(3, 1, "errors", "word", TupleBytes("b"));
  auto batches = cache.DrainAll();
  ASSERT_EQ(batches.size(), 2u);
  std::set<std::string> streams;
  for (const auto& batch : batches) {
    proto::TupleBatchMsg parsed;
    ASSERT_TRUE(parsed.ParseFromBytes(batch.bytes).ok());
    ASSERT_EQ(parsed.tuples.size(), 1u);
    streams.insert(parsed.stream);
  }
  EXPECT_EQ(streams, (std::set<std::string>{"default", "errors"}));
}

// Regression: bytes that moved to the eager staging area (stream
// collision) must keep counting toward the size trip. Previously they
// silently stopped counting, so an eagerly flushed batch could sit
// stranded until the next timer tick.
TEST_F(TupleCacheTest, EagerBytesStillTripSizeDrain) {
  TupleCache cache({/*drain_frequency_ms=*/1000, /*drain_size_bytes=*/256},
                   &pool_);
  // Grow one batch close to (but under) the threshold.
  bool tripped = false;
  while (cache.pending_bytes() < 200) {
    tripped = cache.Add(3, 1, "default", "word", TupleBytes("wordword"));
    ASSERT_FALSE(tripped);
  }
  const size_t staged = cache.pending_bytes();
  // Collide the stream: the whole batch moves to the eager staging area.
  tripped = cache.Add(3, 1, "errors", "word", TupleBytes("x"));
  EXPECT_EQ(cache.eager_bytes(), staged);
  EXPECT_LT(cache.pending_bytes(), staged);
  // Keep adding on the *new* stream: open + eager bytes must trip the
  // threshold even though the open batch alone is far below it.
  for (int i = 0; i < 100 && !tripped; ++i) {
    tripped = cache.Add(3, 1, "errors", "word", TupleBytes("wordword"));
  }
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(cache.should_drain());
  EXPECT_LT(cache.pending_bytes(), 256u)
      << "the open batch alone must not have crossed the threshold — the "
         "eager bytes are what tripped it";

  // Drain stats are attributed when the batches actually leave.
  const auto batches = cache.DrainAll(/*timer_drain=*/false);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(cache.eager_bytes(), 0u);
  EXPECT_EQ(cache.stats().batches_drained, 2u);
  uint64_t drained_bytes = 0;
  for (const auto& b : batches) drained_bytes += b.bytes.size();
  EXPECT_EQ(cache.stats().bytes_drained, drained_bytes);
}

TEST_F(TupleCacheTest, StatsAccumulate) {
  TupleCache cache({10, 1 << 20}, &pool_);
  cache.Add(1, 1, "default", "word", TupleBytes("a"));
  cache.Add(2, 1, "default", "word", TupleBytes("b"));
  cache.DrainAll(/*timer_drain=*/true);
  cache.Add(1, 1, "default", "word", TupleBytes("c"));
  cache.DrainAll(/*timer_drain=*/false);
  const auto& stats = cache.stats();
  EXPECT_EQ(stats.tuples_added, 3u);
  EXPECT_EQ(stats.batches_drained, 3u);
  EXPECT_EQ(stats.timer_drains, 1u);
  EXPECT_EQ(stats.size_drains, 1u);
  EXPECT_GT(stats.bytes_drained, 0u);
}

TEST_F(TupleCacheTest, EmptyDrainIsCheapNoop) {
  TupleCache cache({10, 1 << 20}, &pool_);
  EXPECT_TRUE(cache.DrainAll().empty());
  EXPECT_EQ(cache.stats().timer_drains, 0u);
}

}  // namespace
}  // namespace smgr
}  // namespace heron
