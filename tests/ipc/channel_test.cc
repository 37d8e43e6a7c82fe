#include "ipc/channel.h"

#include <gtest/gtest.h>

#include <thread>

namespace heron {
namespace ipc {
namespace {

TEST(ChannelTest, FifoOrder) {
  Channel<int> channel(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(channel.TrySend(int(i)).ok());
  }
  for (int i = 0; i < 5; ++i) {
    auto v = channel.TryRecv();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(channel.TryRecv().has_value());
}

TEST(ChannelTest, TrySendFullKeepsItem) {
  Channel<std::string> channel(1);
  ASSERT_TRUE(channel.TrySend(std::string("first")).ok());
  std::string second = "second";
  const Status st = channel.TrySend(std::move(second));
  EXPECT_TRUE(st.IsResourceExhausted());
  EXPECT_EQ(second, "second");  // Not consumed on failure.
  EXPECT_EQ(channel.size(), 1u);
}

TEST(ChannelTest, CloseUnblocksAndDrains) {
  Channel<int> channel(8);
  ASSERT_TRUE(channel.TrySend(1).ok());
  ASSERT_TRUE(channel.TrySend(2).ok());
  channel.Close();
  EXPECT_TRUE(channel.TrySend(3).IsCancelled());
  // Remaining items drain before end-of-stream.
  EXPECT_EQ(*channel.TryRecv(), 1);
  EXPECT_EQ(*channel.TryRecv(), 2);
  EXPECT_FALSE(channel.TryRecv().has_value());
  EXPECT_TRUE(channel.closed());
}

// The reactor discipline across threads: the producer retries a refused
// TrySend, and the consumer drains until empty, then parks on its bound
// Wakeup — whose latch means a send racing the park is never slept
// through.
TEST(ChannelTest, CrossThreadThroughputIsLossless) {
  Channel<uint64_t> channel(64);
  Wakeup wakeup;
  channel.BindWakeup(&wakeup);
  constexpr uint64_t kItems = 50000;
  uint64_t sum = 0;
  std::thread consumer([&] {
    RecvState state = RecvState::kEmpty;
    while (state != RecvState::kClosed) {
      while (auto v = channel.TryRecv(&state)) sum += *v;
      if (state == RecvState::kEmpty) wakeup.WaitFor(1000000000);  // 1 s.
    }
  });
  for (uint64_t i = 1; i <= kItems; ++i) {
    while (!channel.TrySend(uint64_t(i)).ok()) std::this_thread::yield();
  }
  channel.Close();
  consumer.join();
  EXPECT_EQ(sum, kItems * (kItems + 1) / 2);
  EXPECT_EQ(channel.total_enqueued(), kItems);
}

TEST(ChannelTest, TryRecvDistinguishesEmptyFromClosed) {
  Channel<int> channel(8);
  RecvState state;

  // Open and empty.
  EXPECT_FALSE(channel.TryRecv(&state).has_value());
  EXPECT_EQ(state, RecvState::kEmpty);

  // Open with an item.
  ASSERT_TRUE(channel.TrySend(42).ok());
  auto v = channel.TryRecv(&state);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(state, RecvState::kItem);

  // Closed but not yet drained: items still come out as kItem.
  ASSERT_TRUE(channel.TrySend(7).ok());
  channel.Close();
  v = channel.TryRecv(&state);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(state, RecvState::kItem);

  // Closed and drained: end of stream, not "try again".
  EXPECT_FALSE(channel.TryRecv(&state).has_value());
  EXPECT_EQ(state, RecvState::kClosed);
}

TEST(ChannelTest, BoundWakeupSeesSendsAndClose) {
  Channel<int> channel(8);
  Wakeup wakeup;
  channel.BindWakeup(&wakeup);

  EXPECT_FALSE(wakeup.Poll());
  ASSERT_TRUE(channel.TrySend(1).ok());
  EXPECT_TRUE(wakeup.Poll());   // Send notified; Poll consumes the latch.
  EXPECT_FALSE(wakeup.Poll());  // Coalesced: one pending bit, not a queue.

  ASSERT_TRUE(channel.TrySend(2).ok());
  ASSERT_TRUE(channel.TrySend(3).ok());
  EXPECT_TRUE(wakeup.Poll());  // N sends → one wakeup.
  EXPECT_FALSE(wakeup.Poll());

  channel.Close();
  EXPECT_TRUE(wakeup.Poll());  // Close must wake a parked consumer.

  channel.BindWakeup(nullptr);  // Unbind: no further notifications.
}

TEST(ChannelTest, MoveOnlyPayloads) {
  Channel<std::unique_ptr<int>> channel(4);
  ASSERT_TRUE(channel.TrySend(std::make_unique<int>(7)).ok());
  auto v = channel.TryRecv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 7);
}

}  // namespace
}  // namespace ipc
}  // namespace heron
