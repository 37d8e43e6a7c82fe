// Stream Manager routing tests, single-stepped (no SMGR thread): every
// grouping must pick exactly the destinations api::Router picks, acks
// must close tuple trees, and back pressure must engage without blocking.

#include "smgr/stream_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"
#include "packing/round_robin_packing.h"
#include "workloads/word_count.h"

namespace heron {
namespace smgr {
namespace {

/// 2 spouts + 2 bolts over 2 containers: tasks 0,1 = spouts ("word"),
/// tasks 2,3 = bolts ("count"); RR puts {0,2} in c0 and {1,3} in c1.
class StreamManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    heron::Logging::SetLevel(heron::LogLevel::kError);
    physical_ = PackWordCount(/*containers=*/2);
    ASSERT_EQ(*physical_->ContainerOfTask(0), 0);
    ASSERT_EQ(*physical_->ContainerOfTask(2), 0);
    ASSERT_EQ(*physical_->ContainerOfTask(3), 1);
  }

  /// 2 spouts + 2 bolts round-robined over `containers` containers.
  static std::shared_ptr<const proto::PhysicalPlan> PackWordCount(
      int containers) {
    auto topology = workloads::BuildWordCountTopology("smgr-test", 2, 2);
    EXPECT_TRUE(topology.ok());
    packing::RoundRobinPacking packer;
    Config config;
    config.SetInt(config_keys::kNumContainersHint, containers);
    EXPECT_TRUE(packer.Initialize(config, *topology).ok());
    auto plan = packer.Pack();
    EXPECT_TRUE(plan.ok());
    return *proto::PhysicalPlan::Build(*topology, *plan);
  }

  /// The events of every kRootEvent envelope in `channel`, one entry per
  /// envelope.
  static std::vector<std::vector<proto::RootEvent>> DrainRootEvents(
      EnvelopeChannel* channel) {
    std::vector<std::vector<proto::RootEvent>> out;
    while (auto env = channel->TryRecv()) {
      EXPECT_EQ(env->type, proto::MessageType::kRootEvent);
      proto::RootEventMsg msg;
      EXPECT_TRUE(msg.ParseFromBytes(env->payload).ok());
      out.push_back(msg.events);
    }
    return out;
  }

  StreamManager::Options BaseOptions(bool acking = false) {
    StreamManager::Options options;
    options.container = 0;
    options.acking = acking;
    return options;
  }

  /// Builds an unrouted instance batch carrying `words` from `src_task`.
  proto::Envelope InstanceBatch(TaskId src_task,
                                const std::vector<std::string>& words,
                                api::TupleKey root = 0) {
    proto::TupleBatchMsg batch;
    batch.src_task = src_task;
    batch.dest_task = -1;
    batch.src_component = "word";
    for (const auto& word : words) {
      proto::TupleDataMsg msg;
      msg.tuple_key = root != 0 ? root : 777;
      if (root != 0) msg.roots.push_back(root);
      msg.values.emplace_back(word);
      batch.tuples.push_back(msg.SerializeAsBuffer());
    }
    return proto::Envelope(proto::MessageType::kTupleBatch,
                           batch.SerializeAsBuffer());
  }

  /// Collects (dest_task → words) from every envelope in a channel.
  std::map<TaskId, std::vector<std::string>> DrainChannel(
      EnvelopeChannel* channel) {
    std::map<TaskId, std::vector<std::string>> out;
    while (auto env = channel->TryRecv()) {
      proto::TupleBatchMsg batch;
      EXPECT_TRUE(batch.ParseFromBytes(env->payload).ok());
      for (const auto& tuple_bytes : batch.tuples) {
        proto::TupleDataMsg msg;
        EXPECT_TRUE(msg.ParseFromBytes(tuple_bytes).ok());
        out[batch.dest_task].push_back(
            std::get<std::string>(msg.values[0]));
      }
    }
    return out;
  }

  std::shared_ptr<const proto::PhysicalPlan> physical_;
};

TEST_F(StreamManagerTest, RoutesFieldsGroupingToBothContainers) {
  Transport transport;
  StreamManager smgr(BaseOptions(), physical_, &transport,
                     RealClock::Get());
  EnvelopeChannel bolt2(64), remote_smgr(64);
  ASSERT_TRUE(transport.RegisterInstance(2, &bolt2).ok());
  ASSERT_TRUE(transport.RegisterSmgr(1, &remote_smgr).ok());

  // Enough distinct words to hit both bolts with near certainty.
  std::vector<std::string> words;
  for (int i = 0; i < 64; ++i) words.push_back("w" + std::to_string(i));
  smgr.ProcessEnvelope(InstanceBatch(0, words));
  smgr.DrainCacheNow();

  const auto local = DrainChannel(&bolt2);
  // The remote SMGR got a routed batch for task 3; peek, then unpack.
  size_t remote_words = 0;
  while (auto env = remote_smgr.TryRecv()) {
    EXPECT_EQ(env->type, proto::MessageType::kTupleBatchRouted);
    EXPECT_EQ(*proto::PeekDestTask(env->payload), 3);
    proto::TupleBatchMsg batch;
    ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
    remote_words += batch.tuples.size();
  }
  size_t local_words = 0;
  for (const auto& [dest, got] : local) {
    EXPECT_EQ(dest, 2);
    local_words += got.size();
  }
  EXPECT_EQ(local_words + remote_words, words.size());
  EXPECT_GT(local_words, 0u);
  EXPECT_GT(remote_words, 0u);
  EXPECT_EQ(smgr.cache_stats().tuples_added, words.size());
}

TEST_F(StreamManagerTest, SameWordAlwaysSameDestination) {
  Transport transport;
  StreamManager smgr(BaseOptions(), physical_, &transport,
                     RealClock::Get());
  EnvelopeChannel bolt2(256), remote_smgr(256);
  ASSERT_TRUE(transport.RegisterInstance(2, &bolt2).ok());
  ASSERT_TRUE(transport.RegisterSmgr(1, &remote_smgr).ok());

  for (int round = 0; round < 5; ++round) {
    smgr.ProcessEnvelope(InstanceBatch(0, {"sticky", "sticky", "sticky"}));
  }
  smgr.DrainCacheNow();
  const size_t local = DrainChannel(&bolt2).size();
  const size_t remote = remote_smgr.size();
  // All 15 copies went one way — never split.
  EXPECT_TRUE((local > 0) != (remote > 0));
}

TEST_F(StreamManagerTest, TransitBatchDeliveredToLocalInstance) {
  Transport transport;
  StreamManager smgr(BaseOptions(), physical_, &transport,
                     RealClock::Get());
  EnvelopeChannel bolt2(64);
  ASSERT_TRUE(transport.RegisterInstance(2, &bolt2).ok());

  proto::TupleBatchMsg batch;
  batch.src_task = 1;
  batch.dest_task = 2;  // Local bolt.
  batch.src_component = "word";
  proto::TupleDataMsg msg;
  msg.values.emplace_back(std::string("transit"));
  batch.tuples.push_back(msg.SerializeAsBuffer());
  smgr.ProcessEnvelope(proto::Envelope(proto::MessageType::kTupleBatchRouted,
                                       batch.SerializeAsBuffer()));

  const auto delivered = DrainChannel(&bolt2);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered.at(2), std::vector<std::string>{"transit"});
}

TEST_F(StreamManagerTest, TransitBatchForwardedToOwningContainer) {
  Transport transport;
  StreamManager smgr(BaseOptions(), physical_, &transport,
                     RealClock::Get());
  EnvelopeChannel remote_smgr(64);
  ASSERT_TRUE(transport.RegisterSmgr(1, &remote_smgr).ok());

  proto::TupleBatchMsg batch;
  batch.src_task = 0;
  batch.dest_task = 3;  // Lives in container 1.
  batch.src_component = "word";
  proto::TupleDataMsg msg;
  msg.values.emplace_back(std::string("hop"));
  batch.tuples.push_back(msg.SerializeAsBuffer());
  smgr.ProcessEnvelope(proto::Envelope(proto::MessageType::kTupleBatchRouted,
                                       batch.SerializeAsBuffer()));
  auto env = remote_smgr.TryRecv();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(*proto::PeekDestTask(env->payload), 3);
}

TEST_F(StreamManagerTest, AddressedEnvelopesForwardWithoutPayloadTouches) {
  // The zero-copy invariant at unit scale: a routed batch whose Envelope
  // carries dest_task (as every SMGR-emitted envelope does) must be
  // forwarded on metadata alone.
  Transport transport;
  StreamManager smgr(BaseOptions(), physical_, &transport,
                     RealClock::Get());
  EnvelopeChannel bolt2(64), remote_smgr(64);
  ASSERT_TRUE(transport.RegisterInstance(2, &bolt2).ok());
  ASSERT_TRUE(transport.RegisterSmgr(1, &remote_smgr).ok());

  auto addressed = [](TaskId dest) {
    proto::TupleBatchMsg batch;
    batch.src_task = 0;
    batch.dest_task = dest;
    batch.src_component = "word";
    proto::TupleDataMsg msg;
    msg.values.emplace_back(std::string("zc"));
    batch.tuples.push_back(msg.SerializeAsBuffer());
    proto::Envelope env(proto::MessageType::kTupleBatchRouted,
                        batch.SerializeAsBuffer());
    env.dest_task = dest;
    return env;
  };
  smgr.ProcessEnvelope(addressed(2));  // Local delivery.
  smgr.ProcessEnvelope(addressed(3));  // Forward to container 1.

  EXPECT_EQ(smgr.metrics()->GetCounter("smgr.payload_touches")->value(),
            0u);
  EXPECT_EQ(bolt2.size(), 1u);
  EXPECT_EQ(remote_smgr.size(), 1u);
  // Forwarded envelopes stay addressed, so the next hop is zero-copy too.
  auto env = remote_smgr.TryRecv();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->dest_task, 3);
}

TEST_F(StreamManagerTest, UnaddressedEnvelopeFallsBackToPeek) {
  // Compatibility path: an envelope with dest_task unset still routes —
  // via a counted payload peek.
  Transport transport;
  StreamManager smgr(BaseOptions(), physical_, &transport,
                     RealClock::Get());
  EnvelopeChannel bolt2(64);
  ASSERT_TRUE(transport.RegisterInstance(2, &bolt2).ok());

  proto::TupleBatchMsg batch;
  batch.src_task = 1;
  batch.dest_task = 2;
  batch.src_component = "word";
  proto::TupleDataMsg msg;
  msg.values.emplace_back(std::string("legacy"));
  batch.tuples.push_back(msg.SerializeAsBuffer());
  smgr.ProcessEnvelope(proto::Envelope(proto::MessageType::kTupleBatchRouted,
                                       batch.SerializeAsBuffer()));
  EXPECT_EQ(bolt2.size(), 1u);
  EXPECT_GT(smgr.metrics()->GetCounter("smgr.payload_touches")->value(), 0u);
}

TEST_F(StreamManagerTest, AckLifecycleCompletesRoot) {
  Transport transport;
  StreamManager smgr(BaseOptions(/*acking=*/true), physical_, &transport,
                     RealClock::Get());
  EnvelopeChannel spout0(64), bolt2(64), remote_smgr(64);
  ASSERT_TRUE(transport.RegisterInstance(0, &spout0).ok());
  ASSERT_TRUE(transport.RegisterInstance(2, &bolt2).ok());
  ASSERT_TRUE(transport.RegisterSmgr(1, &remote_smgr).ok());

  // Spout task 0 emits a tracked tuple; the SMGR registers its root.
  const api::TupleKey root = proto::MakeRootKey(0, 0x77);
  smgr.ProcessEnvelope(InstanceBatch(0, {"tracked"}, root));
  EXPECT_EQ(smgr.acks_pending(), 1u);

  // A bolt acks it: xor = tuple key (= root here, no children).
  proto::AckBatchMsg acks;
  acks.dest_task = 0;
  acks.updates.push_back({root, root, false});
  smgr.ProcessEnvelope(proto::Envelope(proto::MessageType::kAckBatch,
                                       acks.SerializeAsBuffer()));
  EXPECT_EQ(smgr.acks_pending(), 0u);

  // The spout instance got the completion event: one envelope, one event.
  const auto envelopes = DrainRootEvents(&spout0);
  ASSERT_EQ(envelopes.size(), 1u);
  ASSERT_EQ(envelopes[0].size(), 1u);
  EXPECT_EQ(envelopes[0][0].root, root);
  EXPECT_FALSE(envelopes[0][0].fail);
}

TEST_F(StreamManagerTest, AckBatchShipsOneRootEventEnvelopePerSpoutTask) {
  // Both spout tasks (0, 1) live in this SMGR's container here.
  const auto plan = PackWordCount(/*containers=*/1);
  Transport transport;
  StreamManager smgr(BaseOptions(/*acking=*/true), plan, &transport,
                     RealClock::Get());
  EnvelopeChannel spout0(64), spout1(64), bolt2(64), bolt3(64);
  ASSERT_TRUE(transport.RegisterInstance(0, &spout0).ok());
  ASSERT_TRUE(transport.RegisterInstance(1, &spout1).ok());
  ASSERT_TRUE(transport.RegisterInstance(2, &bolt2).ok());
  ASSERT_TRUE(transport.RegisterInstance(3, &bolt3).ok());

  const api::TupleKey a0 = proto::MakeRootKey(0, 0xA0);
  const api::TupleKey a1 = proto::MakeRootKey(0, 0xA1);
  const api::TupleKey b0 = proto::MakeRootKey(1, 0xB0);
  const api::TupleKey b1 = proto::MakeRootKey(1, 0xB1);
  const api::TupleKey doomed = proto::MakeRootKey(1, 0xF0);
  for (const api::TupleKey root : {a0, a1, b0, b1, doomed}) {
    smgr.ProcessEnvelope(
        InstanceBatch(proto::RootKeyTask(root), {"tracked"}, root));
  }
  ASSERT_EQ(smgr.acks_pending(), 5u);

  proto::AckBatchMsg acks;
  acks.dest_task = 0;
  acks.updates = {{b0, b0, false},
                  {a1, a1, false},
                  {doomed, 0, true},
                  {proto::MakeRootKey(0, 0x57A1E), 1, false},  // Stale.
                  {a0, a0, false},
                  {b1, b1, false}};
  smgr.ProcessEnvelope(proto::Envelope(proto::MessageType::kAckBatch,
                                       acks.SerializeAsBuffer()));
  EXPECT_EQ(smgr.acks_pending(), 0u);

  using Events = std::vector<proto::RootEvent>;
  const auto to_spout0 = DrainRootEvents(&spout0);
  ASSERT_EQ(to_spout0.size(), 1u);
  EXPECT_EQ(to_spout0[0], (Events{{a1, false}, {a0, false}}));
  const auto to_spout1 = DrainRootEvents(&spout1);
  ASSERT_EQ(to_spout1.size(), 1u);
  EXPECT_EQ(to_spout1[0], (Events{{b0, false}, {doomed, true}, {b1, false}}));

  EXPECT_EQ(smgr.metrics()->GetCounter("smgr.acks.applied")->value(), 6u);
  EXPECT_EQ(smgr.metrics()->GetCounter("smgr.roots.completed")->value(), 4u);
  EXPECT_EQ(smgr.metrics()->GetCounter("smgr.roots.failed")->value(), 1u);
}

TEST_F(StreamManagerTest, ExpiryPassShipsOneRootEventEnvelopePerSpoutTask) {
  const auto plan = PackWordCount(/*containers=*/1);
  VirtualClock clock;
  Transport transport;
  StreamManager::Options options = BaseOptions(/*acking=*/true);
  options.message_timeout_ms = 10;
  StreamManager smgr(options, plan, &transport, &clock);
  EnvelopeChannel spout0(64), spout1(64), bolt2(64), bolt3(64);
  ASSERT_TRUE(transport.RegisterInstance(0, &spout0).ok());
  ASSERT_TRUE(transport.RegisterInstance(1, &spout1).ok());
  ASSERT_TRUE(transport.RegisterInstance(2, &bolt2).ok());
  ASSERT_TRUE(transport.RegisterInstance(3, &bolt3).ok());

  std::map<TaskId, std::vector<proto::RootEvent>> want;
  for (uint64_t i = 0; i < 200; ++i) {
    const TaskId task = static_cast<TaskId>(i % 3 == 0 ? 1 : 0);
    const api::TupleKey root = proto::MakeRootKey(task, 0x1000 + i);
    smgr.ProcessEnvelope(InstanceBatch(task, {"doomed"}, root));
    want[task].push_back({root, true});
    clock.AdvanceNanos(1000);
  }
  clock.AdvanceMillis(11);
  smgr.ExpireAcksNow();
  EXPECT_EQ(smgr.acks_pending(), 0u);

  // Every overdue root, oldest first, in one envelope per task.
  const auto to_spout0 = DrainRootEvents(&spout0);
  ASSERT_EQ(to_spout0.size(), 1u);
  EXPECT_EQ(to_spout0[0], want[0]);
  const auto to_spout1 = DrainRootEvents(&spout1);
  ASSERT_EQ(to_spout1.size(), 1u);
  EXPECT_EQ(to_spout1[0], want[1]);
  EXPECT_EQ(smgr.metrics()->GetCounter("smgr.roots.timeout")->value(), 200u);
}

TEST_F(StreamManagerTest, AckBatchForRemoteSpoutForwarded) {
  Transport transport;
  StreamManager smgr(BaseOptions(/*acking=*/true), physical_, &transport,
                     RealClock::Get());
  EnvelopeChannel remote_smgr(64);
  ASSERT_TRUE(transport.RegisterSmgr(1, &remote_smgr).ok());

  proto::AckBatchMsg acks;
  acks.dest_task = 1;  // Spout in container 1.
  acks.updates.push_back({proto::MakeRootKey(1, 5), 9, false});
  smgr.ProcessEnvelope(proto::Envelope(proto::MessageType::kAckBatch,
                                       acks.SerializeAsBuffer()));
  EXPECT_EQ(remote_smgr.size(), 1u);
}

TEST_F(StreamManagerTest, ExpiredRootsFailBackToSpout) {
  VirtualClock clock;
  Transport transport;
  StreamManager::Options options = BaseOptions(/*acking=*/true);
  options.message_timeout_ms = 10;
  StreamManager smgr(options, physical_, &transport, &clock);
  EnvelopeChannel spout0(64);
  ASSERT_TRUE(transport.RegisterInstance(0, &spout0).ok());

  const api::TupleKey root = proto::MakeRootKey(0, 0x99);
  smgr.ProcessEnvelope(InstanceBatch(0, {"doomed"}, root));
  clock.AdvanceMillis(11);
  smgr.ExpireAcksNow();

  const auto envelopes = DrainRootEvents(&spout0);
  ASSERT_EQ(envelopes.size(), 1u);
  ASSERT_EQ(envelopes[0].size(), 1u);
  EXPECT_EQ(envelopes[0][0].root, root);
  EXPECT_TRUE(envelopes[0][0].fail);
}

TEST_F(StreamManagerTest, FullChannelParksAndSetsBackpressure) {
  Transport transport;
  StreamManager::Options options = BaseOptions();
  options.backpressure_high_water = 2;
  StreamManager smgr(options, physical_, &transport, RealClock::Get());
  EnvelopeChannel tiny(1);
  ASSERT_TRUE(transport.RegisterInstance(2, &tiny).ok());

  // Deliver several routed batches to the capacity-1 channel.
  for (int i = 0; i < 5; ++i) {
    proto::TupleBatchMsg batch;
    batch.src_task = 0;
    batch.dest_task = 2;
    proto::TupleDataMsg msg;
    msg.values.emplace_back(std::string("x"));
    batch.tuples.push_back(msg.SerializeAsBuffer());
    smgr.ProcessEnvelope(proto::Envelope(
        proto::MessageType::kTupleBatchRouted, batch.SerializeAsBuffer()));
  }
  EXPECT_TRUE(smgr.backpressure());

  // Consumer drains; retries flush; back pressure clears.
  size_t delivered = tiny.TryRecv().has_value() ? 1 : 0;
  while (smgr.FlushRetries() > 0 || tiny.size() > 0) {
    while (tiny.TryRecv().has_value()) ++delivered;
  }
  while (tiny.TryRecv().has_value()) ++delivered;
  EXPECT_EQ(delivered, 5u);
  EXPECT_FALSE(smgr.backpressure());
}

// Regression: a fresh envelope must never overtake a parked predecessor
// on the same channel. The old TrySendOrPark attempted a direct send even
// when older envelopes for the channel sat in the retry queue, so the
// moment the receiver freed one slot a *new* envelope could jump it.
TEST_F(StreamManagerTest, ParkedChannelPreservesFifoOrder) {
  Transport transport;
  StreamManager smgr(BaseOptions(), physical_, &transport, RealClock::Get());
  EnvelopeChannel tiny(1);
  ASSERT_TRUE(transport.RegisterInstance(2, &tiny).ok());

  const auto routed = [&](const std::string& word) {
    proto::TupleBatchMsg batch;
    batch.src_task = 0;
    batch.dest_task = 2;
    proto::TupleDataMsg msg;
    msg.values.emplace_back(word);
    batch.tuples.push_back(msg.SerializeAsBuffer());
    return proto::Envelope(proto::MessageType::kTupleBatchRouted,
                           batch.SerializeAsBuffer());
  };
  const auto recv_word = [&]() -> std::string {
    auto env = tiny.TryRecv();
    if (!env.has_value()) return "<empty>";
    proto::TupleBatchMsg batch;
    EXPECT_TRUE(batch.ParseFromBytes(env->payload).ok());
    proto::TupleDataMsg msg;
    EXPECT_TRUE(msg.ParseFromBytes(batch.tuples.at(0)).ok());
    return std::get<std::string>(msg.values[0]);
  };

  smgr.ProcessEnvelope(routed("a"));  // Fills the capacity-1 channel.
  smgr.ProcessEnvelope(routed("b"));  // Channel full → parks.
  EXPECT_EQ(recv_word(), "a");        // Slot free, but "b" is parked.
  // The overtake window: the channel has room, yet "c" must queue behind
  // "b". The buggy implementation delivered "c" here.
  smgr.ProcessEnvelope(routed("c"));
  EXPECT_EQ(tiny.size(), 0u) << "'c' overtook parked 'b'";
  smgr.FlushRetries();  // Delivers "b" (capacity 1: "c" stays parked).
  EXPECT_EQ(recv_word(), "b");
  smgr.FlushRetries();
  EXPECT_EQ(recv_word(), "c");
  EXPECT_EQ(smgr.FlushRetries(), 0u);
}

// Hysteresis: the episode trips above the high watermark and holds until
// the backlog drains to the low watermark — the flag cannot flap while
// the depth oscillates between the two.
TEST_F(StreamManagerTest, BackpressureHysteresisAndEpisodeMetrics) {
  VirtualClock clock;
  Transport transport;
  StreamManager::Options options = BaseOptions();
  options.backpressure_high_water = 4;
  options.backpressure_low_water = 2;
  StreamManager smgr(options, physical_, &transport, &clock);
  EXPECT_EQ(smgr.backpressure_low_water(), 2u);
  EnvelopeChannel tiny(1);
  ASSERT_TRUE(transport.RegisterInstance(2, &tiny).ok());

  const auto routed = [&] {
    proto::TupleBatchMsg batch;
    batch.src_task = 0;
    batch.dest_task = 2;
    proto::TupleDataMsg msg;
    msg.values.emplace_back(std::string("x"));
    batch.tuples.push_back(msg.SerializeAsBuffer());
    return proto::Envelope(proto::MessageType::kTupleBatchRouted,
                           batch.SerializeAsBuffer());
  };
  // 1 delivered + 5 parked: depth 5 > 4 trips exactly one episode.
  for (int i = 0; i < 6; ++i) smgr.ProcessEnvelope(routed());
  EXPECT_TRUE(smgr.backpressure());
  EXPECT_TRUE(smgr.local_backpressure_active());
  EXPECT_EQ(smgr.metrics()->GetCounter("smgr.backpressure.starts")->value(),
            1u);
  EXPECT_EQ(smgr.metrics()->GetGauge("smgr.backpressure.active")->value(), 1);

  clock.AdvanceMillis(7);
  // Drain one at a time: depth 4, 3 — both above the low watermark, so
  // the episode must hold (the flap bug cleared at high/2 every flush).
  for (const size_t expected : {4u, 3u}) {
    ASSERT_TRUE(tiny.TryRecv().has_value());
    EXPECT_EQ(smgr.FlushRetries(), expected);
    EXPECT_TRUE(smgr.backpressure()) << "flapped at depth " << expected;
  }
  // Depth 2 == low watermark → the episode ends, duration accounted.
  ASSERT_TRUE(tiny.TryRecv().has_value());
  EXPECT_EQ(smgr.FlushRetries(), 2u);
  EXPECT_FALSE(smgr.backpressure());
  EXPECT_FALSE(smgr.local_backpressure_active());
  EXPECT_EQ(
      smgr.metrics()->GetCounter("smgr.backpressure.duration.ns")->value(),
      7u * 1000000u);
  EXPECT_EQ(smgr.metrics()->GetGauge("smgr.backpressure.active")->value(), 0);
  // No re-trip while draining the rest.
  while (tiny.TryRecv().has_value() || smgr.FlushRetries() > 0) {
  }
  EXPECT_EQ(smgr.metrics()->GetCounter("smgr.backpressure.starts")->value(),
            1u);
  // Stop() resets the depth gauge so a dead SMGR never reads backlogged.
  smgr.Stop();
  EXPECT_EQ(smgr.metrics()->GetGauge("smgr.retry.depth")->value(), 0);
}

// The control plane: tripping broadcasts kStartBackpressure to every
// registered peer, clearing broadcasts kStopBackpressure; receiving those
// messages raises/releases a ref-counted throttle.
TEST_F(StreamManagerTest, BackpressureBroadcastAndReceive) {
  Transport transport;
  StreamManager::Options options = BaseOptions();
  options.backpressure_high_water = 2;
  StreamManager smgr(options, physical_, &transport, RealClock::Get());
  EnvelopeChannel tiny(1), peer(64);
  ASSERT_TRUE(transport.RegisterInstance(2, &tiny).ok());
  ASSERT_TRUE(transport.RegisterSmgr(1, &peer).ok());
  // The SMGR's own inbound is registered too (as in a real cluster); the
  // broadcast must skip self.
  ASSERT_TRUE(smgr.StartStepMode().ok());

  const auto routed = [&] {
    proto::TupleBatchMsg batch;
    batch.src_task = 0;
    batch.dest_task = 2;
    proto::TupleDataMsg msg;
    msg.values.emplace_back(std::string("x"));
    batch.tuples.push_back(msg.SerializeAsBuffer());
    return proto::Envelope(proto::MessageType::kTupleBatchRouted,
                           batch.SerializeAsBuffer());
  };
  for (int i = 0; i < 5; ++i) smgr.ProcessEnvelope(routed());
  ASSERT_TRUE(smgr.local_backpressure_active());

  // The peer received exactly one kStartBackpressure naming container 0.
  size_t starts = 0;
  while (auto env = peer.TryRecv()) {
    ASSERT_EQ(env->type, proto::MessageType::kStartBackpressure);
    proto::BackpressureMsg msg;
    ASSERT_TRUE(msg.ParseFromBytes(env->payload).ok());
    EXPECT_EQ(msg.initiator, 0);
    EXPECT_GT(msg.retry_depth, 2u);
    ++starts;
  }
  EXPECT_EQ(starts, 1u);

  // Drain; the clear must broadcast kStopBackpressure.
  while (tiny.TryRecv().has_value() || smgr.FlushRetries() > 0) {
  }
  ASSERT_FALSE(smgr.local_backpressure_active());
  size_t stops = 0;
  while (auto env = peer.TryRecv()) {
    if (env->type == proto::MessageType::kStopBackpressure) ++stops;
  }
  EXPECT_EQ(stops, 1u);

  // Receiving side: a remote initiator throttles this SMGR's spouts.
  proto::BackpressureMsg remote;
  remote.initiator = 1;
  remote.retry_depth = 99;
  smgr.ProcessEnvelope(proto::Envelope(proto::MessageType::kStartBackpressure,
                                       remote.SerializeAsBuffer()));
  EXPECT_TRUE(smgr.backpressure());
  EXPECT_FALSE(smgr.local_backpressure_active());
  EXPECT_EQ(smgr.remote_backpressure_initiators(), 1u);
  EXPECT_EQ(
      smgr.metrics()->GetGauge("smgr.backpressure.initiator.1")->value(), 1);
  // Duplicate start is idempotent (no double ref).
  smgr.ProcessEnvelope(proto::Envelope(proto::MessageType::kStartBackpressure,
                                       remote.SerializeAsBuffer()));
  EXPECT_EQ(smgr.remote_backpressure_initiators(), 1u);
  smgr.ProcessEnvelope(proto::Envelope(proto::MessageType::kStopBackpressure,
                                       remote.SerializeAsBuffer()));
  EXPECT_FALSE(smgr.backpressure());
  EXPECT_EQ(smgr.remote_backpressure_initiators(), 0u);
  smgr.Stop();
}

/// One bolt per grouping kind, four tasks each, all in one container:
/// task 0 is the spout "src" emitting (word, n); "shuffle" holds tasks
/// 1-4, "fields" 5-8, "global" 9-12, "all" 13-16 and "custom" 17-20.
class StreamManagerGroupingTest : public ::testing::Test {
 protected:
  static constexpr int kTuples = 200;
  static constexpr int kSinkTasks = 4;
  /// Per consumer component: word → destination tasks, ascending.
  using Picks =
      std::map<ComponentId, std::map<std::string, std::vector<TaskId>>>;

  static void SetUpTestSuite() {
    heron::Logging::SetLevel(heron::LogLevel::kFatal);
  }

  static api::Values TupleValues(int n) {
    return {api::Value("word-" + std::to_string(n)),
            api::Value(int64_t{n})};
  }

  static std::shared_ptr<const proto::PhysicalPlan> Plan(
      api::CustomGroupingFn custom) {
    const auto none = [] { return nullptr; };
    api::TopologyBuilder b("groupings");
    b.SetSpout("src", none, 1).OutputFields({"word", "n"});
    b.SetBolt("shuffle", none, kSinkTasks).ShuffleGrouping("src");
    b.SetBolt("fields", none, kSinkTasks).FieldsGrouping("src", {"word"});
    b.SetBolt("global", none, kSinkTasks).GlobalGrouping("src");
    b.SetBolt("all", none, kSinkTasks).AllGrouping("src");
    b.SetBolt("custom", none, kSinkTasks)
        .CustomGrouping("src", std::move(custom));
    auto topology = b.Build();
    EXPECT_TRUE(topology.ok()) << topology.status().ToString();
    packing::RoundRobinPacking packer;
    Config config;
    config.SetInt(config_keys::kNumContainersHint, 1);
    EXPECT_TRUE(packer.Initialize(config, *topology).ok());
    auto packed = packer.Pack();
    EXPECT_TRUE(packed.ok());
    return *proto::PhysicalPlan::Build(*topology, *packed);
  }

  static const proto::PhysicalPlan::Subscription& SubscriptionOf(
      const proto::PhysicalPlan& plan, const ComponentId& consumer) {
    const auto& subs = plan.SubscribersOf("src", kDefaultStreamId);
    return *std::find_if(subs.begin(), subs.end(), [&](const auto& sub) {
      return sub.consumer == consumer;
    });
  }

  /// Routes one kTuples-tuple instance batch from the spout through a
  /// fresh SMGR and unpacks where every tuple landed.
  static Picks RouteThroughSmgr(
      const std::shared_ptr<const proto::PhysicalPlan>& plan) {
    Transport transport;
    StreamManager smgr(StreamManager::Options(), plan, &transport,
                       RealClock::Get());
    std::map<TaskId, std::unique_ptr<EnvelopeChannel>> sinks;
    for (const TaskId task : plan->all_tasks()) {
      sinks[task] = std::make_unique<EnvelopeChannel>(kTuples);
      EXPECT_TRUE(transport.RegisterInstance(task, sinks[task].get()).ok());
    }
    proto::TupleBatchMsg batch;
    batch.src_task = 0;
    batch.src_component = "src";
    for (int n = 0; n < kTuples; ++n) {
      proto::TupleDataMsg msg;
      msg.values = TupleValues(n);
      batch.tuples.push_back(msg.SerializeAsBuffer());
    }
    smgr.ProcessEnvelope(proto::Envelope(proto::MessageType::kTupleBatch,
                                         batch.SerializeAsBuffer()));
    smgr.DrainCacheNow();

    Picks picks;
    uint64_t delivered = 0;
    for (const auto& [task, sink] : sinks) {
      while (auto env = sink->TryRecv()) {
        proto::TupleBatchMsg routed;
        EXPECT_TRUE(routed.ParseFromBytes(env->payload).ok());
        EXPECT_EQ(routed.dest_task, task);
        delivered += routed.tuples.size();
        for (const auto& tuple_bytes : routed.tuples) {
          proto::TupleDataMsg msg;
          EXPECT_TRUE(msg.ParseFromBytes(tuple_bytes).ok());
          picks[plan->ComponentOfTask(task)->id]
               [std::get<std::string>(msg.values[0])]
                   .push_back(task);
        }
      }
    }
    // Every pick the SMGR routed reached a sink, and only subscribers'
    // sinks: no pick named a task outside the edge.
    EXPECT_EQ(smgr.metrics()->GetCounter("smgr.tuples.routed")->value(),
              delivered);
    std::set<ComponentId> reached;
    for (auto& [component, by_word] : picks) {
      reached.insert(component);
      for (auto& [word, tasks] : by_word) {
        std::sort(tasks.begin(), tasks.end());
      }
    }
    EXPECT_EQ(reached, (std::set<ComponentId>{"all", "custom", "fields",
                                              "global", "shuffle"}));
    return picks;
  }
};

/// The one routing path: for every grouping kind, the SMGR — working on
/// serialized bytes — delivers each tuple to exactly the tasks
/// api::Router picks from the decoded values.
TEST_F(StreamManagerGroupingTest, EveryGroupingPicksWhatTheRouterPicks) {
  // n mod #tasks, plus the next task for even n: fans out on half.
  const auto plan = Plan([](const api::Values& values, int num_tasks) {
    const int n = static_cast<int>(std::get<int64_t>(values[1]));
    std::vector<int> picks{n % num_tasks};
    if (n % 2 == 0) picks.push_back((n + 1) % num_tasks);
    return picks;
  });
  const Picks got = RouteThroughSmgr(plan);

  const api::Fields& schema =
      *plan->topology().OutputSchema("src", kDefaultStreamId);
  for (const char* component : {"fields", "global", "all", "custom"}) {
    const auto& sub = SubscriptionOf(*plan, component);
    api::Router router(sub.spec.grouping, schema, sub.spec.grouping_fields,
                       sub.consumer_tasks, /*seed=*/1, sub.spec.custom_fn);
    ASSERT_EQ(got.count(component), 1u) << component;
    const auto& by_word = got.at(component);
    EXPECT_EQ(by_word.size(), static_cast<size_t>(kTuples)) << component;
    for (int n = 0; n < kTuples; ++n) {
      const api::Values values = TupleValues(n);
      std::vector<TaskId> want;
      router.Route(values, &want);
      std::sort(want.begin(), want.end());
      const auto it = by_word.find(std::get<std::string>(values[0]));
      ASSERT_NE(it, by_word.end()) << component << " lost tuple " << n;
      EXPECT_EQ(it->second, want) << component << " tuple " << n;
    }
  }

  // Shuffle: one sink per tuple, every sink used, and the per-edge seed
  // makes a rerun pick identically.
  ASSERT_EQ(got.count("shuffle"), 1u);
  const auto& shuffled = got.at("shuffle");
  EXPECT_EQ(shuffled.size(), static_cast<size_t>(kTuples));
  std::set<TaskId> used;
  for (const auto& [word, tasks] : shuffled) {
    ASSERT_EQ(tasks.size(), 1u) << word;
    used.insert(tasks[0]);
  }
  EXPECT_EQ(used.size(), static_cast<size_t>(kSinkTasks));
  EXPECT_EQ(RouteThroughSmgr(plan).at("shuffle"), shuffled);
}

/// A custom grouping's picks come from user code: the out-of-range ones
/// are dropped (and logged), the valid one is delivered, nothing aborts.
TEST_F(StreamManagerGroupingTest, CustomGroupingDropsOutOfRangePicks) {
  const auto plan = Plan([](const api::Values&, int num_tasks) {
    return std::vector<int>{-1, num_tasks, 1, num_tasks + 7};
  });
  const Picks got = RouteThroughSmgr(plan);
  const TaskId second = SubscriptionOf(*plan, "custom").consumer_tasks[1];
  ASSERT_EQ(got.count("custom"), 1u);
  EXPECT_EQ(got.at("custom").size(), static_cast<size_t>(kTuples));
  for (const auto& [word, tasks] : got.at("custom")) {
    EXPECT_EQ(tasks, std::vector<TaskId>{second}) << word;
  }
}

}  // namespace
}  // namespace smgr
}  // namespace heron
