// Deterministic step-mode integration: a full route → cache-drain → ack
// cycle driven entirely through EventLoop::RunOnce() against a SimClock —
// zero threads, bit-replayable. This is the §II kernel's testing payoff:
// the same reactors that run on live threads in production single-step
// here, so end-to-end tuple-tree semantics are checked without sleeps,
// timeouts or scheduling luck.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "instance/instance.h"
#include "packing/round_robin_packing.h"
#include "runtime/tasklet.h"
#include "smgr/stream_manager.h"
#include "workloads/word_count.h"

namespace heron {
namespace {

class StepModeTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kEmitLimit = 20;

  void SetUp() override {
    Logging::SetLevel(LogLevel::kError);
    topology_config_.SetBool(config_keys::kAckingEnabled, true);
    workloads::WordSpout::Options spout_options;
    spout_options.dictionary_size = 1000;
    spout_options.words_per_call = 1;
    spout_options.emit_limit = kEmitLimit;  // Finite stream → quiescence.
    auto topology = workloads::BuildWordCountTopology(
        "step-mode", /*spouts=*/1, /*bolts=*/1, spout_options,
        topology_config_);
    ASSERT_TRUE(topology.ok());

    packing::RoundRobinPacking packer;
    Config packing_config;
    packing_config.SetInt(config_keys::kNumContainersHint, 1);
    ASSERT_TRUE(packer.Initialize(packing_config, *topology).ok());
    auto plan = packer.Pack();
    ASSERT_TRUE(plan.ok());
    physical_ = *proto::PhysicalPlan::Build(*topology, *plan);
    ASSERT_EQ(physical_->num_containers(), 1);
  }

  Config topology_config_;
  std::shared_ptr<const proto::PhysicalPlan> physical_;
};

TEST_F(StepModeTest, FullCycleDeterministic) {
  // Two identical universes must replay the same counters step for step.
  const auto run_universe = [this](int rounds) {
    SimClock clock(0);
    smgr::Transport transport;

    smgr::StreamManager::Options smgr_options;
    smgr_options.container = 0;
    smgr_options.acking = true;
    smgr_options.cache_drain_frequency_ms = 10;
    smgr::StreamManager smgr(smgr_options, physical_, &transport, &clock);
    EXPECT_TRUE(smgr.Start().ok());

    instance::HeronInstance::Options spout_options;
    spout_options.task = 0;
    spout_options.config = topology_config_;
    spout_options.acking = true;
    spout_options.max_spout_pending = 8;
    instance::HeronInstance spout(spout_options, physical_, &transport,
                                  &clock, &smgr);
    EXPECT_TRUE(spout.Start().ok());

    instance::HeronInstance::Options bolt_options;
    bolt_options.task = 1;
    bolt_options.config = topology_config_;
    bolt_options.acking = true;
    instance::HeronInstance bolt(bolt_options, physical_, &transport, &clock,
                                 &smgr);
    EXPECT_TRUE(bolt.Start().ok());

    std::vector<uint64_t> trace;
    for (int round = 0; round < rounds; ++round) {
      // 1. Spout: NextTuple emits one tracked word; outbox ships the
      //    unrouted batch to the local SMGR.
      spout.loop()->RunOnce();
      // 2. SMGR: routes the batch, registers the root, caches the tuple.
      smgr.loop()->RunOnce();
      // 3. The cache-drain timer fires on SimClock time, not wall time.
      clock.AdvanceMillis(10);
      smgr.loop()->RunOnce();
      // 4. Bolt: executes the word, acks; the ack batch flushes back.
      bolt.loop()->RunOnce();
      // 5. SMGR: applies the XOR update → root completes → root event.
      smgr.loop()->RunOnce();
      // 6. Spout: consumes the completion, Ack() reaches user code.
      spout.loop()->RunOnce();

      trace.push_back(spout.metrics()->GetCounter("instance.emitted")->value());
      trace.push_back(spout.metrics()->GetCounter("instance.acked")->value());
      trace.push_back(bolt.metrics()->GetCounter("instance.executed")->value());
      trace.push_back(smgr.acks_pending());
    }

    // Quiescence: the finite stream fully emitted, every word executed,
    // every tuple tree closed, nothing left in flight.
    EXPECT_EQ(spout.metrics()->GetCounter("instance.emitted")->value(),
              kEmitLimit);
    EXPECT_EQ(bolt.metrics()->GetCounter("instance.executed")->value(),
              kEmitLimit);
    EXPECT_EQ(spout.metrics()->GetCounter("instance.acked")->value(),
              kEmitLimit);
    EXPECT_EQ(smgr.acks_pending(), 0u);
    EXPECT_EQ(spout.pending_count(), 0);

    bolt.Stop();
    spout.Stop();
    smgr.Stop();
    return trace;
  };

  const auto first = run_universe(40);
  const auto second = run_universe(40);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST_F(StepModeTest, MaxSpoutPendingThrottlesInStepMode) {
  SimClock clock(0);
  smgr::Transport transport;

  smgr::StreamManager::Options smgr_options;
  smgr_options.container = 0;
  smgr_options.acking = true;
  smgr::StreamManager smgr(smgr_options, physical_, &transport, &clock);
  ASSERT_TRUE(smgr.Start().ok());

  instance::HeronInstance::Options spout_options;
  spout_options.task = 0;
  spout_options.config = topology_config_;
  spout_options.acking = true;
  spout_options.max_spout_pending = 3;  // §V-B flow control.
  instance::HeronInstance spout(spout_options, physical_, &transport, &clock,
                                &smgr);
  ASSERT_TRUE(spout.Start().ok());

  // With no acks flowing back, emission stalls at the pending cap.
  for (int i = 0; i < 20; ++i) spout.loop()->RunOnce();
  EXPECT_EQ(spout.metrics()->GetCounter("instance.emitted")->value(), 3u);
  EXPECT_EQ(spout.pending_count(), 3);

  spout.Stop();
  smgr.Stop();
}

// Cooperative mode's two-universe harness: the same modules ride an
// inline (threaded=false) TaskletPool, driven by DriveAll() against a
// SimClock. Replays must be byte-identical — cooperative scheduling adds
// slice budgets and round-robin passes, but no nondeterminism.
TEST_F(StepModeTest, CooperativeInlinePoolDeterministic) {
  const auto run_universe = [this](int rounds) {
    SimClock clock(0);
    smgr::Transport transport;

    runtime::TaskletPool::Options pool_options;
    pool_options.workers = 1;
    pool_options.threaded = false;
    runtime::TaskletPool pool(pool_options, &clock);

    smgr::StreamManager::Options smgr_options;
    smgr_options.container = 0;
    smgr_options.acking = true;
    smgr_options.cache_drain_frequency_ms = 10;
    smgr::StreamManager smgr(smgr_options, physical_, &transport, &clock);
    EXPECT_TRUE(smgr.Start().ok());
    pool.Add(smgr.loop());

    instance::HeronInstance::Options spout_options;
    spout_options.task = 0;
    spout_options.config = topology_config_;
    spout_options.acking = true;
    spout_options.max_spout_pending = 8;
    instance::HeronInstance spout(spout_options, physical_, &transport,
                                  &clock, &smgr);
    EXPECT_TRUE(spout.Start().ok());
    pool.Add(spout.loop());

    instance::HeronInstance::Options bolt_options;
    bolt_options.task = 1;
    bolt_options.config = topology_config_;
    bolt_options.acking = true;
    instance::HeronInstance bolt(bolt_options, physical_, &transport, &clock,
                                 &smgr);
    EXPECT_TRUE(bolt.Start().ok());
    pool.Add(bolt.loop());

    std::vector<uint64_t> trace;
    for (int round = 0; round < rounds; ++round) {
      // One scheduler pass over {smgr, spout, bolt}, then the cache-drain
      // timer's clock edge, then the pass that consumes what it flushed.
      pool.DriveAll();
      clock.AdvanceMillis(10);
      pool.DriveAll();

      trace.push_back(spout.metrics()->GetCounter("instance.emitted")->value());
      trace.push_back(spout.metrics()->GetCounter("instance.acked")->value());
      trace.push_back(bolt.metrics()->GetCounter("instance.executed")->value());
      trace.push_back(smgr.acks_pending());
    }

    // Quiescence under the same drive loop (bounded for safety).
    for (int i = 0; i < 100; ++i) {
      const bool worked = pool.DriveAll();
      clock.AdvanceMillis(10);
      if (!worked && !pool.DriveAll()) break;
    }
    EXPECT_EQ(spout.metrics()->GetCounter("instance.emitted")->value(),
              kEmitLimit);
    EXPECT_EQ(bolt.metrics()->GetCounter("instance.executed")->value(),
              kEmitLimit);
    EXPECT_EQ(spout.metrics()->GetCounter("instance.acked")->value(),
              kEmitLimit);
    EXPECT_EQ(smgr.acks_pending(), 0u);
    EXPECT_EQ(spout.pending_count(), 0);

    bolt.Stop();
    spout.Stop();
    smgr.Stop();
    return trace;
  };

  const auto first = run_universe(20);
  const auto second = run_universe(20);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

}  // namespace
}  // namespace heron
