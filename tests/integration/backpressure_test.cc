// Cluster-wide spout back-pressure integration, single-stepped: three
// simulated containers on one SimClock, zero threads. Container 2 is the
// straggler — its Stream Manager is simply never stepped while its tiny
// inbound fills — so container 0's SMGR parks envelopes past the high
// watermark, trips an episode and broadcasts kStartBackpressure. The
// assertion that matters: the spout in container 1 — a container that is
// neither slow nor backlogged — stops emitting within ONE control
// round-trip, and resumes after kStopBackpressure. No tuple is dropped
// anywhere, and two identical universes replay the same trace bit for
// bit (the protocol runs entirely on the reactor).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "instance/instance.h"
#include "packing/round_robin_packing.h"
#include "smgr/stream_manager.h"
#include "workloads/word_count.h"

namespace heron {
namespace {

class BackpressureStepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logging::SetLevel(LogLevel::kError);
    workloads::WordSpout::Options spout_options;
    spout_options.dictionary_size = 1000;
    spout_options.words_per_call = 1;
    // 2 spouts + 1 bolt over 3 containers: RR puts spout task 0 in c0,
    // spout task 1 in c1 and bolt task 2 in c2 — every spout is remote
    // from the bolt's (slow) container.
    auto topology = workloads::BuildWordCountTopology(
        "backpressure", /*spouts=*/2, /*bolts=*/1, spout_options,
        topology_config_);
    ASSERT_TRUE(topology.ok());
    packing::RoundRobinPacking packer;
    Config packing_config;
    packing_config.SetInt(config_keys::kNumContainersHint, 3);
    ASSERT_TRUE(packer.Initialize(packing_config, *topology).ok());
    auto plan = packer.Pack();
    ASSERT_TRUE(plan.ok());
    physical_ = *proto::PhysicalPlan::Build(*topology, *plan);
    ASSERT_EQ(physical_->num_containers(), 3);
    ASSERT_EQ(*physical_->ContainerOfTask(0), 0);
    ASSERT_EQ(*physical_->ContainerOfTask(1), 1);
    ASSERT_EQ(*physical_->ContainerOfTask(2), 2);
  }

  Config topology_config_;
  std::shared_ptr<const proto::PhysicalPlan> physical_;
};

struct UniverseTrace {
  std::vector<uint64_t> counters;
  std::vector<std::string> received;  ///< Bolt-side words, arrival order.

  bool operator==(const UniverseTrace& o) const {
    return counters == o.counters && received == o.received;
  }
};

TEST_F(BackpressureStepTest, SlowContainerThrottlesRemoteSpouts) {
  const auto run_universe = [this]() -> UniverseTrace {
    UniverseTrace trace;
    SimClock clock(0);
    smgr::Transport transport;

    // Container 0: the episode initiator. Low watermarks so the test trips
    // within a handful of rounds.
    smgr::StreamManager::Options opts0;
    opts0.container = 0;
    opts0.backpressure_high_water = 4;
    opts0.backpressure_low_water = 2;
    smgr::StreamManager smgr0(opts0, physical_, &transport, &clock);
    // Container 1: a healthy peer that must never trip on its own.
    smgr::StreamManager::Options opts1;
    opts1.container = 1;
    opts1.backpressure_high_water = 1000;
    smgr::StreamManager smgr1(opts1, physical_, &transport, &clock);
    // Container 2: the straggler — a 2-slot inbound it never drains until
    // the recovery phase.
    smgr::StreamManager::Options opts2;
    opts2.container = 2;
    opts2.inbound_capacity = 2;
    smgr::StreamManager smgr2(opts2, physical_, &transport, &clock);
    EXPECT_TRUE(smgr0.Start().ok());
    EXPECT_TRUE(smgr1.Start().ok());
    EXPECT_TRUE(smgr2.Start().ok());

    instance::HeronInstance::Options s0;
    s0.task = 0;
    s0.config = topology_config_;
    instance::HeronInstance spout0(s0, physical_, &transport, &clock, &smgr0);
    instance::HeronInstance::Options s1;
    s1.task = 1;
    s1.config = topology_config_;
    instance::HeronInstance spout1(s1, physical_, &transport, &clock, &smgr1);
    EXPECT_TRUE(spout0.Start().ok());
    EXPECT_TRUE(spout1.Start().ok());

    // The bolt side: a raw channel standing in for task 2's instance, so
    // the test can count and order every delivered word.
    smgr::EnvelopeChannel bolt_rx(4096);
    EXPECT_TRUE(transport.RegisterInstance(2, &bolt_rx).ok());
    const auto drain_bolt = [&] {
      while (auto env = bolt_rx.TryRecv()) {
        proto::TupleBatchMsg batch;
        EXPECT_TRUE(batch.ParseFromBytes(env->payload).ok());
        for (const auto& tuple_bytes : batch.tuples) {
          proto::TupleDataMsg msg;
          EXPECT_TRUE(msg.ParseFromBytes(tuple_bytes).ok());
          trace.received.push_back(std::get<std::string>(msg.values[0]));
        }
      }
    };
    const auto emitted = [](instance::HeronInstance* inst) {
      return inst->metrics()->GetCounter("instance.emitted")->value();
    };

    // Phase 1: spout0 pumps words toward the straggler until smgr0's
    // parked depth crosses the high watermark and the episode trips.
    int rounds = 0;
    while (!smgr0.local_backpressure_active() && rounds < 200) {
      ++rounds;
      spout0.loop()->RunOnce();  // Emit one word → unrouted batch.
      smgr0.loop()->RunOnce();   // Route + cache.
      clock.AdvanceMillis(10);
      smgr0.loop()->RunOnce();   // Timer drain → send/park toward c2.
    }
    EXPECT_TRUE(smgr0.local_backpressure_active());
    EXPECT_TRUE(smgr0.backpressure());
    trace.counters.push_back(static_cast<uint64_t>(rounds));
    trace.counters.push_back(emitted(&spout0));

    // Phase 2: ONE control round-trip — smgr1 steps once and is throttled
    // by the remote initiator, without any local backlog of its own.
    EXPECT_FALSE(smgr1.backpressure());
    smgr1.loop()->RunOnce();
    EXPECT_TRUE(smgr1.backpressure());
    EXPECT_FALSE(smgr1.local_backpressure_active());
    EXPECT_EQ(smgr1.remote_backpressure_initiators(), 1u);
    EXPECT_EQ(
        smgr1.metrics()->GetGauge("smgr.backpressure.initiator.0")->value(),
        1);

    // Phase 3: spout1 — in a different container from both the straggler
    // and the initiator's spout — is paused at the reactor layer.
    const uint64_t emitted1_before = emitted(&spout1);
    for (int i = 0; i < 10; ++i) spout1.loop()->RunOnce();
    EXPECT_EQ(emitted(&spout1), emitted1_before);
    EXPECT_GT(
        spout1.metrics()->GetCounter("instance.loop.idle.throttled")->value(),
        0u);

    // Phase 4: the straggler recovers — its reactor drains the backlog —
    // and smgr0's retries flush until the low watermark releases the
    // episode (kStopBackpressure broadcast).
    int recovery = 0;
    while (smgr0.local_backpressure_active() && recovery < 500) {
      ++recovery;
      clock.AdvanceMillis(1);  // Time passes while the episode is open.
      smgr2.loop()->RunOnce();
      drain_bolt();
      smgr0.FlushRetries();
    }
    EXPECT_FALSE(smgr0.local_backpressure_active());
    trace.counters.push_back(static_cast<uint64_t>(recovery));
    EXPECT_EQ(
        smgr0.metrics()->GetCounter("smgr.backpressure.starts")->value(), 1u);
    EXPECT_GT(
        smgr0.metrics()->GetCounter("smgr.backpressure.duration.ns")->value(),
        0u);

    // Phase 5: the release reaches smgr1; spout1 resumes emitting.
    smgr1.loop()->RunOnce();
    EXPECT_FALSE(smgr1.backpressure());
    EXPECT_EQ(smgr1.remote_backpressure_initiators(), 0u);
    for (int i = 0; i < 5; ++i) {
      spout1.loop()->RunOnce();
      smgr1.loop()->RunOnce();
      clock.AdvanceMillis(10);
      smgr1.loop()->RunOnce();
    }
    EXPECT_GT(emitted(&spout1), emitted1_before);

    // Phase 6: drain everything to quiescence. Zero tuple drops: every
    // word either spout emitted must reach the bolt channel.
    for (int i = 0; i < 100; ++i) {
      smgr0.loop()->RunOnce();
      smgr1.loop()->RunOnce();
      smgr2.loop()->RunOnce();
      smgr0.FlushRetries();
      smgr1.FlushRetries();
      clock.AdvanceMillis(10);
      smgr0.loop()->RunOnce();
      smgr1.loop()->RunOnce();
      smgr2.loop()->RunOnce();
      drain_bolt();
    }
    const uint64_t total_emitted = emitted(&spout0) + emitted(&spout1);
    EXPECT_EQ(trace.received.size(), total_emitted) << "tuples dropped";
    trace.counters.push_back(total_emitted);
    trace.counters.push_back(emitted(&spout0));
    trace.counters.push_back(emitted(&spout1));
    trace.counters.push_back(
        smgr0.metrics()->GetCounter("smgr.backpressure.starts")->value());

    spout1.Stop();
    spout0.Stop();
    smgr2.Stop();
    smgr1.Stop();
    smgr0.Stop();
    return trace;
  };

  // Two-universe replay: the whole conversation — trip, broadcast,
  // throttle, release, drain — is deterministic on the reactor.
  const UniverseTrace first = run_universe();
  const UniverseTrace second = run_universe();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.received.empty());
}

}  // namespace
}  // namespace heron
