// HeronInstance executor tests with a stubbed SMGR endpoint: the spout
// loop's emission/ack/flow-control behaviour and the bolt loop's
// execute/ack behaviour, observed at the serialized wire.

#include "instance/instance.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "packing/round_robin_packing.h"
#include "smgr/ack_tracker.h"
#include "statemgr/in_memory_state_manager.h"
#include "tests/common/counting_clock.h"
#include "tmaster/checkpoint_coordinator.h"
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
    physical_ = PlanFor(*topology);

    transport_ = std::make_unique<smgr::Transport>();
    smgr_inbound_ = std::make_unique<smgr::EnvelopeChannel>(1 << 14);
    ASSERT_TRUE(transport_->RegisterSmgr(0, smgr_inbound_.get()).ok());
  }

  /// Packs `topology` into one container.
  static std::shared_ptr<const proto::PhysicalPlan> PlanFor(
      const std::shared_ptr<const api::Topology>& topology) {
    packing::RoundRobinPacking packer;
    Config config;
    config.SetInt(config_keys::kNumContainersHint, 1);
    EXPECT_TRUE(packer.Initialize(config, topology).ok());
    auto plan = packer.Pack();
    EXPECT_TRUE(plan.ok());
    return *proto::PhysicalPlan::Build(topology, *plan);
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
  spout.loop()->Start();
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
  spout.loop()->Start();

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

  HeronInstance::Options options;
  options.task = 0;
  options.acking = true;
  options.config.SetBool(config_keys::kAckingEnabled, true);
  HeronInstance spout(options, PlanFor(*topology), transport_.get(),
                      RealClock::Get(), nullptr);
  ASSERT_TRUE(spout.Start().ok());
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
  bolt.loop()->Start();

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

  HeronInstance::Options options;
  options.task = 1;  // The recording bolt.
  HeronInstance bolt(options, PlanFor(*topology), transport_.get(),
                     RealClock::Get(), nullptr);
  ASSERT_TRUE(bolt.Start().ok());

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

// Two-level tuple tree: a relay bolt acks its input k (root R) after
// emitting one anchored child c. The child carries R, and the ack update
// folds k ^ c into R, so the tracker stays pending until c itself is acked.
TEST_F(InstanceTest, RelayAckFoldsAnchoredChildIntoRoot) {
  auto topology =
      workloads::BuildWordChainTopology("inst-relay", 1, 1, 1, 1);
  ASSERT_TRUE(topology.ok());
  const auto plan = PlanFor(*topology);
  const TaskId spout = plan->TasksOfComponent("word").at(0);
  HeronInstance::Options options;
  options.task = plan->TasksOfComponent("relay0").at(0);
  options.acking = true;
  options.config.SetBool(config_keys::kAckingEnabled, true);
  HeronInstance relay(options, plan, transport_.get(), RealClock::Get(),
                      nullptr);
  ASSERT_TRUE(relay.Start().ok());

  const api::TupleKey root = proto::MakeRootKey(spout, 0x5EED);
  const api::TupleKey key = 0x0123456789ABCDEFull;
  proto::TupleDataMsg input;
  input.tuple_key = key;
  input.roots.push_back(root);
  input.values.emplace_back(std::string("hello"));
  proto::TupleBatchMsg batch;
  batch.src_task = spout;
  batch.dest_task = options.task;
  batch.src_component = "word";
  batch.tuples.push_back(input.SerializeAsBuffer());
  ASSERT_TRUE(relay.inbound()
                  ->TrySend(proto::Envelope(
                      proto::MessageType::kTupleBatchRouted,
                      batch.SerializeAsBuffer()))
                  .ok());
  relay.loop()->RunOnce();

  std::vector<proto::TupleDataMsg> children;
  std::vector<proto::AckUpdate> updates;
  while (auto env = smgr_inbound_->TryRecv()) {
    if (env->type == proto::MessageType::kTupleBatch) {
      proto::TupleBatchMsg out;
      ASSERT_TRUE(out.ParseFromBytes(env->payload).ok());
      for (const auto& bytes : out.tuples) {
        children.emplace_back();
        ASSERT_TRUE(children.back().ParseFromBytes(bytes).ok());
      }
    } else if (env->type == proto::MessageType::kAckBatch) {
      proto::AckBatchMsg acks;
      ASSERT_TRUE(acks.ParseFromBytes(env->payload).ok());
      EXPECT_EQ(acks.dest_task, spout);  // Root owner.
      updates.insert(updates.end(), acks.updates.begin(), acks.updates.end());
    }
  }
  ASSERT_EQ(children.size(), 1u);
  const api::TupleKey child = children[0].tuple_key;
  EXPECT_NE(child, key);
  EXPECT_EQ(children[0].roots, std::vector<api::TupleKey>{root});
  EXPECT_EQ(children[0].values, input.values);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0], (proto::AckUpdate{root, key ^ child, false}));

  smgr::AckTracker tracker(/*timeout_nanos=*/1000000000);
  tracker.Register(root, key, /*now_nanos=*/0);
  EXPECT_FALSE(
      tracker.Update(root, updates[0].xor_value, updates[0].fail).has_value());
  EXPECT_EQ(tracker.pending(), 1u);
  const auto done = tracker.Update(root, child, false);  // The leaf's ack.
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->fail);
  EXPECT_EQ(tracker.pending(), 0u);
  relay.Stop();
}

/// Barrier alignment on a single-stepped recording bolt fed by two spout
/// tasks (upstream channels A and B), snapshotting into an in-memory
/// state tree. Every batch carries one tuple whose only value is an id,
/// so `Executed()` is the bolt's execution order.
class InstanceAlignmentTest : public InstanceTest {
 protected:
  void SetUp() override {
    InstanceTest::SetUp();
    ASSERT_TRUE(state_.Initialize(Config()).ok());
    api::TopologyBuilder builder("inst-align");
    builder
        .SetSpout(
            "src",
            [] { return std::make_unique<workloads::WordSpout>(
                     workloads::WordSpout::Options{}); },
            2)
        .OutputFields({"id"});
    auto seen = seen_;
    builder
        .SetBolt(
            "rec", [seen] { return std::make_unique<RecordingBolt>(seen); },
            1)
        .ShuffleGrouping("src");
    auto topology = builder.Build();
    ASSERT_TRUE(topology.ok());
    plan_ = PlanFor(*topology);
    a_ = plan_->TasksOfComponent("src").at(0);
    b_ = plan_->TasksOfComponent("src").at(1);
    HeronInstance::Options options;
    options.task = plan_->TasksOfComponent("rec").at(0);
    options.checkpoint_state = &state_;
    bolt_ = std::make_unique<HeronInstance>(options, plan_, transport_.get(),
                                            RealClock::Get(), nullptr);
    ASSERT_TRUE(bolt_->Start().ok());
  }

  void TearDown() override { bolt_->Stop(); }

  void Deliver(proto::Envelope env) {
    ASSERT_TRUE(bolt_->inbound()->TrySend(std::move(env)).ok());
    bolt_->loop()->RunOnce();
  }

  void SendControl(uint8_t kind, uint64_t ckpt_id, TaskId origin) {
    proto::CheckpointBarrierMsg msg;
    msg.ckpt_id = ckpt_id;
    msg.origin_task = origin;
    msg.kind = kind;
    proto::Envelope env(proto::MessageType::kCheckpointBarrier,
                        msg.SerializeAsBuffer());
    env.dest_task = bolt_->task();
    Deliver(std::move(env));
  }
  void SendBarrier(uint64_t ckpt_id, TaskId origin) {
    SendControl(proto::CheckpointBarrierMsg::kBarrier, ckpt_id, origin);
  }
  void SendAbort(uint64_t ckpt_id) {
    SendControl(proto::CheckpointBarrierMsg::kAbort, ckpt_id, -1);
  }

  void SendBatch(TaskId src, int64_t id) {
    proto::TupleDataMsg tuple;
    tuple.tuple_key = static_cast<api::TupleKey>(id);
    tuple.values.emplace_back(id);
    proto::TupleBatchMsg batch;
    batch.src_task = src;
    batch.dest_task = bolt_->task();
    batch.src_component = "src";
    batch.tuples.push_back(tuple.SerializeAsBuffer());
    Deliver(proto::Envelope(proto::MessageType::kTupleBatchRouted,
                            batch.SerializeAsBuffer()));
  }

  std::vector<int64_t> Executed() const {
    std::vector<int64_t> ids;
    for (const SeenTuple& t : *seen_) {
      ids.push_back(std::get<int64_t>(t.values[0]));
    }
    return ids;
  }

  uint64_t Count(const char* counter) {
    return bolt_->metrics()->GetCounter(counter)->value();
  }

  bool HasSnapshot(uint64_t ckpt_id) {
    return state_
        .ExistsNode(statemgr::paths::CheckpointTask("inst-align", ckpt_id,
                                                    bolt_->task()))
        .ValueOr(false);
  }

  /// Checkpoint ids of the barriers the bolt forwarded to its SMGR.
  std::vector<uint64_t> ForwardedBarriers() {
    std::vector<uint64_t> ids;
    while (auto env = smgr_inbound_->TryRecv()) {
      if (env->type != proto::MessageType::kCheckpointBarrier) continue;
      proto::CheckpointBarrierMsg msg;
      EXPECT_TRUE(msg.ParseFromBytes(env->payload).ok());
      EXPECT_EQ(msg.origin_task, bolt_->task());
      ids.push_back(msg.ckpt_id);
    }
    return ids;
  }

  statemgr::InMemoryStateManager state_;
  std::shared_ptr<std::vector<SeenTuple>> seen_ =
      std::make_shared<std::vector<SeenTuple>>();
  std::shared_ptr<const proto::PhysicalPlan> plan_;
  TaskId a_ = -1;
  TaskId b_ = -1;
  std::unique_ptr<HeronInstance> bolt_;
};

// A newer barrier overtaking an incomplete alignment aborts it: the batch
// buffered for the dead checkpoint runs first, and the newer checkpoint
// then aligns and completes normally.
TEST_F(InstanceAlignmentTest, OvertakingBarrierAbortsThenNewerCompletes) {
  SendBarrier(1, a_);
  SendBatch(a_, 1);  // Post-barrier on A: parked.
  EXPECT_TRUE(Executed().empty());
  EXPECT_EQ(Count("instance.aligned.buffered"), 1u);

  SendBarrier(2, a_);  // Checkpoint 1 can no longer complete here.
  EXPECT_EQ(Count("instance.checkpoint.aborts"), 1u);
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1}));

  SendBatch(a_, 2);  // Post-barrier for checkpoint 2: parked.
  SendBatch(b_, 3);  // B has not barriered yet: runs at once.
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1, 3}));

  SendBarrier(2, b_);  // Aligned: snapshot, forward, release A's batch.
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1, 3, 2}));
  EXPECT_EQ(Count("instance.checkpoints"), 1u);
  EXPECT_EQ(Count("instance.checkpoint.aborts"), 1u);
  EXPECT_TRUE(HasSnapshot(2));
  EXPECT_FALSE(HasSnapshot(1));
  EXPECT_EQ(ForwardedBarriers(), (std::vector<uint64_t>{2}));
}

// kAbort fences its checkpoint: a straggler barrier of the aborted
// checkpoint is stale and must not open an alignment that can never
// complete (which would park B's channel).
TEST_F(InstanceAlignmentTest, AbortFencesStragglerBarriers) {
  SendBarrier(5, a_);
  SendBatch(a_, 1);
  SendAbort(5);
  EXPECT_EQ(Count("instance.checkpoint.aborts"), 1u);
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1}));

  SendBarrier(5, b_);  // Straggler of the aborted checkpoint.
  SendBatch(b_, 2);
  SendBatch(a_, 3);
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(Count("instance.aligned.buffered"), 1u);
  EXPECT_EQ(Count("instance.checkpoints"), 0u);
  EXPECT_TRUE(ForwardedBarriers().empty());
}

// An abort of an older checkpoint leaves the running alignment intact.
TEST_F(InstanceAlignmentTest, StaleAbortLeavesAlignmentIntact) {
  SendBarrier(5, a_);
  SendAbort(4);
  EXPECT_EQ(Count("instance.checkpoint.aborts"), 0u);
  SendBatch(a_, 1);  // Still post-barrier for checkpoint 5: parked.
  EXPECT_TRUE(Executed().empty());

  SendBarrier(5, b_);
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1}));
  EXPECT_EQ(Count("instance.checkpoints"), 1u);
  EXPECT_EQ(Count("instance.checkpoint.aborts"), 0u);
  EXPECT_TRUE(HasSnapshot(5));
  EXPECT_EQ(ForwardedBarriers(), (std::vector<uint64_t>{5}));
}

// An abort of a newer checkpoint than the one aligning fences the older
// one's barriers too, so it ends that alignment instead of leaving A's
// channel parked until some later barrier overtakes.
TEST_F(InstanceAlignmentTest, NewerAbortEndsOlderAlignment) {
  SendBarrier(5, a_);
  SendBatch(a_, 1);
  SendAbort(6);
  EXPECT_EQ(Count("instance.checkpoint.aborts"), 1u);
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1}));

  SendBarrier(5, b_);
  SendBarrier(6, a_);
  SendBatch(a_, 2);
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1, 2}));

  SendBarrier(7, a_);  // The next checkpoint aligns normally.
  SendBatch(a_, 3);
  SendBarrier(7, b_);
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(Count("instance.checkpoints"), 1u);
  EXPECT_EQ(ForwardedBarriers(), (std::vector<uint64_t>{7}));
}

// The coordinator's stale-timeout abort reaches the bolts: a bolt that
// saw only spout A's barrier releases the batch it parked for A as soon
// as the abort arrives, before any barrier of the next checkpoint, and
// B's late barrier of the aborted checkpoint is dropped as stale.
TEST_F(InstanceAlignmentTest, StaleTimeoutAbortReleasesPartialAlignment) {
  // The spouts have no channels here, so the coordinator's triggers are
  // undeliverable; keep their warnings out of the log.
  Logging::SetLevel(LogLevel::kError);
  SimClock clock(0);
  tmaster::CheckpointCoordinator::Options coordinator_options;
  coordinator_options.topology = "inst-align";
  coordinator_options.interval_ms = 10;
  coordinator_options.stale_timeout_multiple = 5;
  tmaster::CheckpointCoordinator coordinator(coordinator_options, &state_,
                                             transport_.get(), &clock);
  coordinator.SetPlan(plan_);

  clock.AdvanceMillis(10);
  coordinator.Tick(clock.NowNanos());
  ASSERT_EQ(coordinator.in_flight(), 1u);
  SendBarrier(1, a_);  // Only A's barrier arrives.
  SendBatch(a_, 1);    // Post-barrier on A: parked.
  EXPECT_TRUE(Executed().empty());

  clock.AdvanceMillis(50);  // Five intervals: checkpoint 1 is stale.
  coordinator.Tick(clock.NowNanos());
  EXPECT_EQ(coordinator.aborted(), 1u);
  EXPECT_EQ(coordinator.in_flight(), 2u);  // The cadence moved on.
  bolt_->loop()->RunOnce();                // Handles the kAbort.
  EXPECT_EQ(Count("instance.checkpoint.aborts"), 1u);
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1}));

  SendBarrier(1, b_);  // B's late barrier of the aborted checkpoint.
  SendBatch(a_, 2);
  SendBatch(b_, 3);
  EXPECT_EQ(Executed(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(Count("instance.aligned.buffered"), 1u);
  EXPECT_EQ(Count("instance.checkpoints"), 0u);
  EXPECT_TRUE(ForwardedBarriers().empty());
}

/// Emits 16 tracked tuples per NextTuple round, and one untracked tuple
/// (value -1) from Fail.
class RoundSpout final : public api::ISpout {
 public:
  static constexpr int kPerRound = 16;

  void Open(const Config&, api::TopologyContext*,
            api::ISpoutOutputCollector* collector) override {
    collector_ = collector;
  }
  void NextTuple() override {
    for (int i = 0; i < kPerRound; ++i) {
      collector_->Emit({api::Value(next_id_)}, next_id_);
      ++next_id_;
    }
  }
  void Fail(int64_t) override { collector_->Emit({api::Value(int64_t{-1})}); }

 private:
  api::ISpoutOutputCollector* collector_ = nullptr;
  int64_t next_id_ = 0;
};

// One clock read per spout round: every tuple of one NextTuple call
// carries the stamp its first emit read, the next round reads a later
// one, and an emit from Fail (outside any round) reads its own time.
TEST_F(InstanceTest, SpoutRoundSharesOneEmitStamp) {
  auto seen = std::make_shared<std::vector<SeenTuple>>();
  api::TopologyBuilder builder("inst-rounds");
  builder.SetSpout("src", [] { return std::make_unique<RoundSpout>(); }, 1)
      .OutputFields({"id"});
  builder
      .SetBolt(
          "rec", [seen] { return std::make_unique<RecordingBolt>(seen); }, 1)
      .ShuffleGrouping("src");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  CountingClock clock(/*nanos_per_read=*/1000);  // No two reads agree.
  HeronInstance::Options options;
  options.task = 0;  // The spout.
  options.acking = true;
  options.config.SetBool(config_keys::kAckingEnabled, true);
  HeronInstance spout(options, PlanFor(*topology), transport_.get(), &clock,
                      nullptr);
  ASSERT_TRUE(spout.Start().ok());

  struct Emitted {
    int64_t value = 0;
    int64_t emit_time = 0;
    std::vector<api::TupleKey> roots;
  };
  const auto drain = [this] {
    std::vector<Emitted> out;
    while (auto env = smgr_inbound_->TryRecv()) {
      proto::TupleBatchMsg batch;
      EXPECT_TRUE(batch.ParseFromBytes(env->payload).ok());
      for (const auto& bytes : batch.tuples) {
        proto::TupleDataMsg msg;
        EXPECT_TRUE(msg.ParseFromBytes(bytes).ok());
        out.push_back({std::get<int64_t>(msg.values.at(0)),
                       msg.emit_time_nanos, msg.roots});
      }
    }
    return out;
  };
  const auto expect_one_round = [](const std::vector<Emitted>& round) {
    ASSERT_EQ(round.size(), static_cast<size_t>(RoundSpout::kPerRound));
    for (const Emitted& e : round) {
      EXPECT_EQ(e.emit_time, round.front().emit_time) << "id " << e.value;
    }
  };

  spout.loop()->RunOnce();  // Open, then round 1.
  const std::vector<Emitted> first = drain();
  expect_one_round(first);
  spout.loop()->RunOnce();
  const std::vector<Emitted> second = drain();
  expect_one_round(second);
  EXPECT_GT(second.front().emit_time, first.front().emit_time);

  // A failed root: the Fail callback emits before the step's round does.
  ASSERT_EQ(first.front().roots.size(), 1u);
  proto::RootEventMsg event;
  event.events.push_back({first.front().roots[0], /*fail=*/true});
  ASSERT_TRUE(spout.inbound()
                  ->TrySend(proto::Envelope(proto::MessageType::kRootEvent,
                                            event.SerializeAsBuffer()))
                  .ok());
  spout.loop()->RunOnce();
  std::vector<Emitted> third = drain();
  ASSERT_FALSE(third.empty());
  const Emitted from_fail = third.front();
  EXPECT_EQ(from_fail.value, -1);
  third.erase(third.begin());
  expect_one_round(third);
  EXPECT_GT(from_fail.emit_time, second.front().emit_time);
  EXPECT_GT(third.front().emit_time, from_fail.emit_time);
  spout.Stop();
}

// Step mode has one thread, so a spout whose SMGR channel is full must
// park its output and stop emitting — a blocking send would wait forever
// for a drain only this thread could do.
TEST_F(InstanceTest, StepModeSpoutParksOnFullSmgrChannel) {
  ASSERT_TRUE(transport_->UnregisterSmgr(0).ok());
  smgr::EnvelopeChannel tiny(/*capacity=*/1);
  ASSERT_TRUE(transport_->RegisterSmgr(0, &tiny).ok());
  HeronInstance::Options options;
  options.task = 0;  // The spout: one word, one batch per step.
  SimClock clock(0);
  HeronInstance spout(options, physical_, transport_.get(), &clock, nullptr);
  ASSERT_TRUE(spout.Start().ok());
  const metrics::Counter* emitted =
      spout.metrics()->GetCounter("instance.emitted");

  spout.loop()->RunOnce();  // Batch 1 fills the channel.
  spout.loop()->RunOnce();  // Batch 2 parks in the outbox backlog.
  EXPECT_EQ(emitted->value(), 2u);
  for (int i = 0; i < 5; ++i) spout.loop()->RunOnce();
  EXPECT_EQ(emitted->value(), 2u);  // Paused while the backlog exists.
  EXPECT_EQ(tiny.size(), 1u);

  ASSERT_TRUE(tiny.TryRecv().has_value());  // The "SMGR" drains batch 1.
  spout.loop()->RunOnce();  // Batch 2 ships, then emission resumes.
  EXPECT_EQ(emitted->value(), 3u);
  EXPECT_EQ(tiny.size(), 1u);

  ASSERT_TRUE(tiny.TryRecv().has_value());  // Batch 2.
  spout.Stop();  // The shutdown flush ships parked batch 3.
  EXPECT_EQ(tiny.size(), 1u);
  ASSERT_TRUE(transport_->UnregisterSmgr(0).ok());
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
  spout.loop()->Start();
  // A spout ignores control envelopes; what matters is whether the
  // transport still finds its endpoint.
  const auto send = [&] {
    proto::Envelope env(proto::MessageType::kControl, serde::Buffer());
    return transport_->TrySend(smgr::Transport::InstanceEndpoint(0), &env);
  };
  EXPECT_TRUE(send().ok());
  spout.Stop();
  spout.Stop();
  EXPECT_TRUE(send().IsNotFound());
}

}  // namespace
}  // namespace instance
}  // namespace heron
