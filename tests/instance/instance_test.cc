// HeronInstance executor tests with a stubbed SMGR endpoint: the spout
// loop's emission/ack/flow-control behaviour and the bolt loop's
// execute/ack behaviour, observed at the serialized wire.

#include "instance/instance.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "packing/round_robin_packing.h"
#include "workloads/word_count.h"

namespace heron {
namespace instance {
namespace {

class InstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logging::SetLevel(LogLevel::kWarning);
    workloads::WordSpout::Options spout_options;
    spout_options.dictionary_size = 50;
    auto topology = workloads::BuildWordCountTopology("inst-test", 1, 1,
                                                      spout_options);
    ASSERT_TRUE(topology.ok());
    packing::RoundRobinPacking packer;
    Config config;
    config.SetInt(config_keys::kNumContainersHint, 1);
    ASSERT_TRUE(packer.Initialize(config, *topology).ok());
    auto plan = packer.Pack();
    ASSERT_TRUE(plan.ok());
    physical_ = *proto::PhysicalPlan::Build(*topology, *plan);

    transport_ = std::make_unique<smgr::Transport>();
    smgr_inbound_ = std::make_unique<smgr::EnvelopeChannel>(1 << 14);
    ASSERT_TRUE(transport_->RegisterSmgr(0, smgr_inbound_.get()).ok());
  }

  /// Waits until `predicate` or the deadline.
  void WaitFor(const std::function<bool()>& predicate, int64_t timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!predicate() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::shared_ptr<const proto::PhysicalPlan> physical_;
  std::unique_ptr<smgr::Transport> transport_;
  std::unique_ptr<smgr::EnvelopeChannel> smgr_inbound_;
};

TEST_F(InstanceTest, SpoutEmitsSerializedBatchesToLocalSmgr) {
  HeronInstance::Options options;
  options.task = 0;  // The spout.
  HeronInstance spout(options, physical_, transport_.get(),
                      RealClock::Get(), nullptr);
  ASSERT_TRUE(spout.Start().ok());
  WaitFor([&] { return smgr_inbound_->size() >= 3; }, 10000);
  spout.Stop();

  auto env = smgr_inbound_->TryRecv();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->type, proto::MessageType::kTupleBatch);
  proto::TupleBatchMsg batch;
  ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
  EXPECT_EQ(batch.src_task, 0);
  EXPECT_EQ(batch.src_component, "word");
  EXPECT_EQ(batch.dest_task, -1);  // Routing is the SMGR's job.
  ASSERT_FALSE(batch.tuples.empty());
  proto::TupleDataMsg msg;
  ASSERT_TRUE(msg.ParseFromBytes(batch.tuples[0]).ok());
  EXPECT_TRUE(msg.roots.empty());  // Acking off: untracked emission.
  EXPECT_GT(spout.metrics()->GetCounter("instance.emitted")->value(), 0u);
}

TEST_F(InstanceTest, AckedSpoutStopsAtMaxPendingAndResumesOnRootEvents) {
  HeronInstance::Options options;
  options.task = 0;
  options.acking = true;
  options.max_spout_pending = 100;
  options.config.SetBool(config_keys::kAckingEnabled, true);
  HeronInstance spout(options, physical_, transport_.get(),
                      RealClock::Get(), nullptr);
  ASSERT_TRUE(spout.Start().ok());

  // With nobody acking, emission halts at the cap.
  WaitFor([&] { return spout.pending_count() >= 100; }, 10000);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(spout.pending_count(), 100);

  // Collect the roots actually emitted, ack half of them.
  std::vector<api::TupleKey> roots;
  while (auto env = smgr_inbound_->TryRecv()) {
    proto::TupleBatchMsg batch;
    ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
    for (const auto& bytes : batch.tuples) {
      proto::TupleDataMsg msg;
      ASSERT_TRUE(msg.ParseFromBytes(bytes).ok());
      for (const api::TupleKey root : msg.roots) roots.push_back(root);
    }
  }
  ASSERT_EQ(roots.size(), 100u);
  for (size_t i = 0; i < 50; ++i) {
    proto::RootEventMsg event;
    // One event per envelope; a few failures among the acks.
    event.events.push_back({roots[i], i % 10 == 9});
    ASSERT_TRUE(spout.inbound()
                    ->TrySend(proto::Envelope(
                        proto::MessageType::kRootEvent,
                        event.SerializeAsBuffer()))
                    .ok());
  }

  // The freed slots refill: new emissions arrive.
  WaitFor([&] { return smgr_inbound_->size() > 0; }, 10000);
  EXPECT_GT(smgr_inbound_->size(), 0u);
  spout.Stop();
  EXPECT_EQ(spout.metrics()->GetCounter("instance.acked")->value(), 45u);
  EXPECT_EQ(spout.metrics()->GetCounter("instance.failed")->value(), 5u);
  EXPECT_GT(
      spout.metrics()->GetHistogram("instance.complete.latency.ns")->count(),
      0u);
}

TEST_F(InstanceTest, OneRootEventEnvelopeAppliesEveryEvent) {
  // A finite spout (100 tracked words, no replays), single-stepped, so
  // pending_count() moves only by the events the envelope applies.
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 50;
  spout_options.emit_limit = 100;
  auto topology = workloads::BuildWordCountTopology("inst-batch", 1, 1,
                                                    spout_options);
  ASSERT_TRUE(topology.ok());
  packing::RoundRobinPacking packer;
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 1);
  ASSERT_TRUE(packer.Initialize(config, *topology).ok());
  auto plan = packer.Pack();
  ASSERT_TRUE(plan.ok());

  HeronInstance::Options options;
  options.task = 0;
  options.acking = true;
  options.config.SetBool(config_keys::kAckingEnabled, true);
  HeronInstance spout(options, *proto::PhysicalPlan::Build(*topology, *plan),
                      transport_.get(), RealClock::Get(), nullptr);
  ASSERT_TRUE(spout.StartStepMode().ok());
  for (int i = 0; i < 1000 && spout.pending_count() < 100; ++i) {
    spout.loop()->RunOnce();
  }
  ASSERT_EQ(spout.pending_count(), 100);

  std::vector<api::TupleKey> roots;
  while (auto env = smgr_inbound_->TryRecv()) {
    proto::TupleBatchMsg batch;
    ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
    for (const auto& bytes : batch.tuples) {
      proto::TupleDataMsg msg;
      ASSERT_TRUE(msg.ParseFromBytes(bytes).ok());
      roots.insert(roots.end(), msg.roots.begin(), msg.roots.end());
    }
  }
  ASSERT_EQ(roots.size(), 100u);

  // 30 acks and 10 fails interleaved, plus two stale events: a root this
  // spout never emitted, and a repeat of one the envelope already closed.
  proto::RootEventMsg events;
  for (size_t i = 0; i < 40; ++i) {
    events.events.push_back({roots[i], i % 4 == 3});
    if (i == 20) events.events.push_back({proto::MakeRootKey(0, 0xBAD), false});
  }
  events.events.push_back({roots[0], false});
  ASSERT_TRUE(spout.inbound()
                  ->TrySend(proto::Envelope(proto::MessageType::kRootEvent,
                                            events.SerializeAsBuffer()))
                  .ok());
  spout.loop()->RunOnce();

  auto* metrics = spout.metrics();
  EXPECT_EQ(metrics->GetCounter("instance.acked")->value(), 30u);
  EXPECT_EQ(metrics->GetCounter("instance.failed")->value(), 10u);
  EXPECT_EQ(metrics->GetCounter("instance.rootevent.stale")->value(), 2u);
  EXPECT_EQ(metrics->GetHistogram("instance.complete.latency.ns")->count(),
            30u);
  EXPECT_EQ(spout.pending_count(), 60);
  spout.Stop();
}

TEST_F(InstanceTest, BoltExecutesRoutedBatchesAndAcksUpstream) {
  HeronInstance::Options options;
  options.task = 1;  // The count bolt.
  options.acking = true;
  options.config.SetBool(config_keys::kAckingEnabled, true);
  HeronInstance bolt(options, physical_, transport_.get(),
                     RealClock::Get(), nullptr);
  ASSERT_TRUE(bolt.Start().ok());

  // Hand it a routed batch of three tracked words.
  proto::TupleBatchMsg batch;
  batch.src_task = 0;
  batch.dest_task = 1;
  batch.src_component = "word";
  std::vector<api::TupleKey> roots;
  for (int i = 0; i < 3; ++i) {
    proto::TupleDataMsg msg;
    const api::TupleKey root =
        proto::MakeRootKey(0, 100 + static_cast<uint64_t>(i));
    msg.tuple_key = root;
    msg.roots.push_back(root);
    msg.values.emplace_back(std::string("hello"));
    batch.tuples.push_back(msg.SerializeAsBuffer());
    roots.push_back(root);
  }
  ASSERT_TRUE(bolt.inbound()
                  ->TrySend(proto::Envelope(
                      proto::MessageType::kTupleBatchRouted,
                      batch.SerializeAsBuffer()))
                  .ok());

  WaitFor([&] { return smgr_inbound_->size() > 0; }, 10000);
  bolt.Stop();
  EXPECT_EQ(bolt.metrics()->GetCounter("instance.executed")->value(), 3u);

  // The CountBolt acks every input: one ack update per root must have
  // reached the SMGR, each carrying xor == tuple key (leaf tuples).
  std::map<api::TupleKey, api::TupleKey> updates;
  while (auto env = smgr_inbound_->TryRecv()) {
    if (env->type != proto::MessageType::kAckBatch) continue;
    proto::AckBatchMsg acks;
    ASSERT_TRUE(acks.ParseFromBytes(env->payload).ok());
    EXPECT_EQ(acks.dest_task, 0);  // Root owner.
    for (const auto& u : acks.updates) updates[u.root] = u.xor_value;
  }
  ASSERT_EQ(updates.size(), 3u);
  for (const api::TupleKey root : roots) {
    EXPECT_EQ(updates[root], root);
  }
}

/// What a bolt observed of one input tuple.
struct SeenTuple {
  api::Values values;
  std::vector<api::TupleKey> roots;
  api::TupleKey key = 0;
  int64_t emit_time_nanos = 0;
  ComponentId source_component;
  StreamId stream;
  TaskId source_task = -1;
};

/// Copies every input it is handed; the engine reuses the input object.
class RecordingBolt final : public api::IBolt {
 public:
  explicit RecordingBolt(std::shared_ptr<std::vector<SeenTuple>> seen)
      : seen_(std::move(seen)) {}
  void Prepare(const Config&, api::TopologyContext*,
               api::IBoltOutputCollector*) override {}
  void Execute(const api::Tuple& input) override {
    seen_->push_back({input.values(), input.roots(), input.tuple_key(),
                      input.emit_time_nanos(), input.source_component(),
                      input.stream(), input.source_task()});
  }

 private:
  std::shared_ptr<std::vector<SeenTuple>> seen_;
};

TEST_F(InstanceTest, ReusedInputTupleCarriesExactlyEachReceivedTuple) {
  auto seen = std::make_shared<std::vector<SeenTuple>>();
  api::TopologyBuilder builder("inst-reuse");
  builder
      .SetSpout(
          "src",
          [] { return std::make_unique<workloads::WordSpout>(
                   workloads::WordSpout::Options{}); },
          1)
      .OutputFields({"word"}, "side");
  builder
      .SetBolt(
          "rec", [seen] { return std::make_unique<RecordingBolt>(seen); }, 1)
      .ShuffleGrouping("src", "side");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  packing::RoundRobinPacking packer;
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 1);
  ASSERT_TRUE(packer.Initialize(config, *topology).ok());
  auto plan = packer.Pack();
  ASSERT_TRUE(plan.ok());

  HeronInstance::Options options;
  options.task = 1;  // The recording bolt.
  HeronInstance bolt(options, *proto::PhysicalPlan::Build(*topology, *plan),
                     transport_.get(), RealClock::Get(), nullptr);
  ASSERT_TRUE(bolt.StartStepMode().ok());

  // Arity, kinds and root count change from tuple to tuple, so every slot
  // the reused tuple holds is overwritten, retyped or dropped.
  std::vector<proto::TupleDataMsg> good(3);
  good[0].tuple_key = 11;
  good[0].roots = {proto::MakeRootKey(0, 1), proto::MakeRootKey(0, 2)};
  good[0].emit_time_nanos = 1000;
  good[0].values = {std::string(1024, 'p'), int64_t{7}, int64_t{-3}};
  good[1].tuple_key = 22;
  good[1].emit_time_nanos = 2000;
  good[1].values = {int64_t{42}};
  good[2].tuple_key = 33;
  good[2].roots = {proto::MakeRootKey(0, 3)};
  good[2].emit_time_nanos = 3000;
  good[2].values = {std::string("alpha"), std::string("beta")};

  // Malformed: key, three roots and a first value decode before the
  // second value's kind is rejected (field numbers as documented on
  // TupleDataMsg). None of it may reach the bolt or the next tuple.
  serde::Buffer values;
  serde::WireEncoder values_enc(&values);
  values_enc.WriteVarint(3);
  api::EncodeValue(std::string("poison"), &values_enc);
  values_enc.WriteVarint(9);  // No such value kind.
  values_enc.WriteVarint(0);
  serde::Buffer bad;
  serde::WireEncoder enc(&bad);
  enc.WriteUint64Field(1, 0xBAD);
  for (uint64_t r = 7; r < 10; ++r) {
    enc.WriteUint64Field(2, proto::MakeRootKey(0, r));
  }
  enc.WriteInt64Field(3, 9999);
  enc.WriteBytesField(4, values);

  proto::TupleBatchMsg batch;
  batch.src_task = 0;
  batch.dest_task = 1;
  batch.stream = "side";
  batch.src_component = "src";
  batch.tuples.push_back(good[0].SerializeAsBuffer());
  batch.tuples.push_back(good[1].SerializeAsBuffer());
  batch.tuples.push_back(bad);
  batch.tuples.push_back(good[2].SerializeAsBuffer());
  ASSERT_TRUE(bolt.inbound()
                  ->TrySend(proto::Envelope(
                      proto::MessageType::kTupleBatchRouted,
                      batch.SerializeAsBuffer()))
                  .ok());
  for (int i = 0; i < 100 && seen->size() < good.size(); ++i) {
    bolt.loop()->RunOnce();
  }

  ASSERT_EQ(seen->size(), good.size());
  for (size_t i = 0; i < good.size(); ++i) {
    const SeenTuple& got = (*seen)[i];
    EXPECT_EQ(got.values, good[i].values) << i;
    EXPECT_EQ(got.roots, good[i].roots) << i;
    EXPECT_EQ(got.key, good[i].tuple_key) << i;
    EXPECT_EQ(got.emit_time_nanos, good[i].emit_time_nanos) << i;
    EXPECT_EQ(got.source_component, "src") << i;
    EXPECT_EQ(got.stream, "side") << i;
    EXPECT_EQ(got.source_task, 0) << i;
  }
  EXPECT_EQ(bolt.metrics()->GetCounter("instance.executed")->value(), 3u);
  bolt.Stop();
}

TEST_F(InstanceTest, StartRejectsUnknownTask) {
  HeronInstance::Options options;
  options.task = 42;
  HeronInstance ghost(options, physical_, transport_.get(),
                      RealClock::Get(), nullptr);
  EXPECT_TRUE(ghost.Start().IsNotFound());
}

TEST_F(InstanceTest, StopIsIdempotentAndUnregisters) {
  HeronInstance::Options options;
  options.task = 0;
  HeronInstance spout(options, physical_, transport_.get(),
                      RealClock::Get(), nullptr);
  ASSERT_TRUE(spout.Start().ok());
  EXPECT_NE(transport_->InstanceChannel(0), nullptr);
  spout.Stop();
  spout.Stop();
  EXPECT_EQ(transport_->InstanceChannel(0), nullptr);
}

}  // namespace
}  // namespace instance
}  // namespace heron
