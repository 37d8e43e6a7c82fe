#include "instance/outbox.h"

#include <gtest/gtest.h>

namespace heron {
namespace instance {
namespace {

proto::TupleDataMsg WordTuple(const std::string& word) {
  proto::TupleDataMsg msg;
  msg.tuple_key = 5;
  msg.values.emplace_back(word);
  return msg;
}

class OutboxTest : public ::testing::Test {
 protected:
  OutboxTest() : smgr_inbound_(256) {
    HERON_CHECK_OK(transport_.RegisterSmgr(0, &smgr_inbound_));
  }

  smgr::Transport transport_;
  smgr::EnvelopeChannel smgr_inbound_;
};

TEST_F(OutboxTest, FlushShipsWellFormedUnroutedBatch) {
  Outbox outbox(/*task=*/4, "word", /*container=*/0, &transport_, 64);
  outbox.EmitTuple(kDefaultStreamId, WordTuple("a"));
  outbox.EmitTuple(kDefaultStreamId, WordTuple("b"));
  EXPECT_EQ(smgr_inbound_.size(), 0u);  // Below threshold: staged.
  outbox.Flush();

  auto env = smgr_inbound_.TryRecv();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->type, proto::MessageType::kTupleBatch);
  proto::TupleBatchMsg batch;
  ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
  EXPECT_EQ(batch.src_task, 4);
  EXPECT_EQ(batch.dest_task, -1);  // Unrouted.
  EXPECT_EQ(batch.src_component, "word");
  EXPECT_EQ(batch.tuples.size(), 2u);
  EXPECT_EQ(outbox.tuples_emitted(), 2u);
  EXPECT_EQ(outbox.batches_sent(), 1u);
}

TEST_F(OutboxTest, ThresholdAutoFlushes) {
  Outbox outbox(4, "word", 0, &transport_, /*flush_tuples=*/3);
  for (int i = 0; i < 7; ++i) {
    outbox.EmitTuple(kDefaultStreamId, WordTuple("w" + std::to_string(i)));
  }
  EXPECT_EQ(smgr_inbound_.size(), 2u);  // Two full batches of 3.
  outbox.Flush();                       // The remaining 1.
  EXPECT_EQ(smgr_inbound_.size(), 3u);
  size_t total = 0;
  while (auto env = smgr_inbound_.TryRecv()) {
    proto::TupleBatchMsg batch;
    ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
    total += batch.tuples.size();
  }
  EXPECT_EQ(total, 7u);
}

TEST_F(OutboxTest, StreamsBatchSeparately) {
  Outbox outbox(4, "word", 0, &transport_, 64);
  outbox.EmitTuple("default", WordTuple("d"));
  outbox.EmitTuple("errors", WordTuple("e"));
  outbox.Flush();
  std::set<std::string> streams;
  while (auto env = smgr_inbound_.TryRecv()) {
    proto::TupleBatchMsg batch;
    ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
    streams.insert(batch.stream);
  }
  EXPECT_EQ(streams, (std::set<std::string>{"default", "errors"}));
}

TEST_F(OutboxTest, AckUpdatesBatchPerOwner) {
  Outbox outbox(4, "count", 0, &transport_, 64);
  outbox.AddAckUpdate(0, {proto::MakeRootKey(0, 1), 11, false});
  outbox.AddAckUpdate(0, {proto::MakeRootKey(0, 2), 22, false});
  outbox.AddAckUpdate(1, {proto::MakeRootKey(1, 3), 33, true});
  outbox.Flush();

  std::map<TaskId, size_t> updates_per_owner;
  while (auto env = smgr_inbound_.TryRecv()) {
    EXPECT_EQ(env->type, proto::MessageType::kAckBatch);
    proto::AckBatchMsg batch;
    ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
    updates_per_owner[batch.dest_task] = batch.updates.size();
  }
  EXPECT_EQ(updates_per_owner[0], 2u);
  EXPECT_EQ(updates_per_owner[1], 1u);
}

TEST_F(OutboxTest, FlushIsIdempotentWhenEmpty) {
  Outbox outbox(4, "word", 0, &transport_, 64);
  outbox.Flush();
  outbox.Flush();
  EXPECT_EQ(smgr_inbound_.size(), 0u);
  EXPECT_EQ(outbox.batches_sent(), 0u);
}

}  // namespace
}  // namespace instance
}  // namespace heron
