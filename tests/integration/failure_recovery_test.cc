// End-to-end container failure recovery, single-stepped: the full
// detect → restart → re-register → drain → replay cycle of §IV-B runs
// threadless on a SimClock, for every scheduler kind the repo models
// (direct local launch plus the four simulated frameworks).
//
// The script: a 2-container WordCount with acking — spout (+ its SMGR's
// ack tracker) in container 0 alongside the TMaster, bolt in container 1.
// Mid-stream, container 1 is hard-killed (threads halted, no shutdown
// drains). The heartbeat monitor must notice the silence, declare the
// container dead after interval × miss-limit, and route the death per the
// framework contract: Aurora/Marathon auto-restart the failed slot
// themselves, YARN/Slurm emit a kFailed event that the stateful
// FrameworkScheduler answers with an explicit RestartContainer. The
// surviving SMGR parks envelopes for the dead endpoints, re-delivers them
// once the replacement re-registers, and the tuple trees that died inside
// the killed container time out at the ack tracker and replay from the
// spout (WordSpout::Options::replay_failed) — so every one of the
// emit-limit distinct words ends up acked: zero silent loss.
//
// Every phase is asserted on, and the whole run is replayed twice: two
// identical universes must produce byte-identical traces.

#include "runtime/local_cluster.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "statemgr/topology_state.h"
#include "tests/common/kill_schedule.h"
#include "workloads/word_count.h"

namespace heron {
namespace runtime {
namespace {

constexpr uint64_t kEmitLimit = 30;
constexpr int64_t kMonitorIntervalMs = 100;
constexpr int kMissLimit = 3;
constexpr int64_t kCollectIntervalMs = 50;
constexpr int64_t kMessageTimeoutMs = 2000;

Config StepClusterConfig(const std::string& kind) {
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 2);
  config.Set(config_keys::kSchedulerKind, kind);
  config.SetBool(config_keys::kClusterStepMode, true);
  config.SetInt(config_keys::kSchedulerMonitorIntervalMs, kMonitorIntervalMs);
  config.SetInt(config_keys::kSchedulerMonitorMissLimit, kMissLimit);
  config.SetInt(config_keys::kMetricsCollectIntervalMs, kCollectIntervalMs);
  return config;
}

Config AckingTopologyConfig() {
  Config config;
  config.SetBool(config_keys::kAckingEnabled, true);
  // Long relative to the recovery window: only trees whose tuples really
  // died with the container expire — parked-but-alive trees complete
  // normally after re-registration, so no word is ever acked twice.
  config.SetInt(config_keys::kMessageTimeoutMs, kMessageTimeoutMs);
  config.SetInt(config_keys::kMaxSpoutPending, 64);
  return config;
}

/// One full kill → recover → drain universe under `kind`. Returns the
/// sampled trace so two runs can be compared bit for bit.
std::vector<uint64_t> RunKillRecoveryUniverse(const std::string& kind) {
  std::vector<uint64_t> trace;
  SimClock clock(0);
  LocalCluster cluster(StepClusterConfig(kind), &clock);

  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 200;
  spout_options.words_per_call = 2;
  spout_options.emit_limit = kEmitLimit;
  spout_options.replay_failed = true;
  const std::string name = "recovery-" + kind;
  auto topology = workloads::BuildWordCountTopology(
      name, /*spouts=*/1, /*bolts=*/1, spout_options, AckingTopologyConfig());
  EXPECT_TRUE(topology.ok());
  EXPECT_TRUE(cluster.Submit(*topology).ok()) << "submit failed for " << kind;
  EXPECT_EQ(cluster.num_live_containers(), 2);
  // RR packing: spout task 0 → container 0 (with the TMaster + tracker),
  // bolt task 1 → container 1 (the victim).

  const auto counter = [&](const char* metric) {
    return cluster.SumCounter(metric);
  };
  const auto recovery = [&](const char* metric) {
    return cluster.recovery_metrics()->GetCounter(metric)->value();
  };
  const auto rounds = [&](int n) {
    for (int i = 0; i < n; ++i) {
      cluster.StepAll();
      clock.AdvanceMillis(5);
      cluster.StepAll();
    }
  };

  // Phase 1: pump the pipeline. The spout is still mid-stream when the
  // kill lands, so tuple trees are in flight inside the victim.
  rounds(6);
  EXPECT_GT(counter("instance.emitted"), 0u);
  trace.push_back(counter("instance.emitted"));
  trace.push_back(counter("instance.executed"));
  trace.push_back(counter("instance.acked"));

  // Phase 2: hard-kill the bolt container. No detection yet — heartbeats
  // just stop.
  EXPECT_TRUE(cluster.FailContainer(1).ok());
  EXPECT_EQ(cluster.num_live_containers(), 1);
  EXPECT_EQ(recovery("recovery.deaths"), 0u);

  // Phase 3: detection. Advance in heartbeat-interval chunks; the
  // survivor keeps heartbeating through its collection tick while the
  // victim stays silent. After interval × miss-limit the monitor declares
  // it dead and recovery routes synchronously — the replacement container
  // is live when MonitorTick returns.
  int detect_ticks = 0;
  while (recovery("recovery.deaths") == 0 && detect_ticks < 20) {
    ++detect_ticks;
    clock.AdvanceMillis(kCollectIntervalMs);
    cluster.StepAll();
    cluster.MonitorTick();
  }
  trace.push_back(static_cast<uint64_t>(detect_ticks));
  EXPECT_EQ(recovery("recovery.deaths"), 1u);
  EXPECT_EQ(cluster.num_live_containers(), 2) << "replacement not launched";
  // Silence must exceed interval × miss-limit before the declaration.
  EXPECT_GE(detect_ticks * kCollectIntervalMs,
            kMonitorIntervalMs * kMissLimit);
  // The state tree shows the death until the replacement heartbeats.
  auto dead = statemgr::GetDeadContainers(*cluster.state_manager(), name);
  EXPECT_TRUE(dead.ok());
  if (dead.ok()) {
    EXPECT_EQ(*dead, std::vector<int>{1});
  }

  // Phase 4: restoration. The replacement's first metrics-collection tick
  // heartbeats; the TMaster flips dead → alive and measures the restore
  // latency.
  int restore_ticks = 0;
  while (recovery("recovery.restarts") == 0 && restore_ticks < 20) {
    ++restore_ticks;
    clock.AdvanceMillis(kCollectIntervalMs);
    cluster.StepAll();
  }
  trace.push_back(static_cast<uint64_t>(restore_ticks));
  EXPECT_EQ(recovery("recovery.restarts"), 1u);
  EXPECT_EQ(recovery("recovery.restarts.1"), 1u);
  EXPECT_EQ(cluster.tmaster()->ContainerRestarts(1), 1);
  dead = statemgr::GetDeadContainers(*cluster.state_manager(), name);
  EXPECT_TRUE(dead.ok());
  if (dead.ok()) {
    EXPECT_TRUE(dead->empty()) << "state tree still dead";
  }

  // The framework contract (§IV-B): stateless frameworks auto-restarted
  // the slot themselves; stateful ones needed the Scheduler to act.
  if (kind == "yarn" || kind == "slurm") {
    EXPECT_EQ(cluster.failovers_handled(), 1) << kind;
  } else {
    EXPECT_EQ(cluster.failovers_handled(), 0) << kind;
  }

  // Phase 5: drain + replay. Parked envelopes re-deliver to the restarted
  // SMGR; the trees that died inside the victim ride out the message
  // timeout, fail back to the spout and replay (same id, same word). Run
  // until every distinct word is acked.
  int drain_rounds = 0;
  while (counter("instance.acked") < kEmitLimit && drain_rounds < 3000) {
    ++drain_rounds;
    cluster.StepAll();
    clock.AdvanceMillis(5);
    cluster.StepAll();
  }
  trace.push_back(static_cast<uint64_t>(drain_rounds));
  trace.push_back(counter("instance.emitted"));
  trace.push_back(counter("instance.acked"));
  trace.push_back(counter("instance.failed"));

  // Zero silent loss: all kEmitLimit distinct words acked, exactly once.
  EXPECT_EQ(counter("instance.acked"), kEmitLimit) << kind;
  // Replays re-emitted through the instance, so raw emits ≥ the limit,
  // and the timed-out trees surfaced as spout Fail() calls.
  EXPECT_GE(counter("instance.emitted"), kEmitLimit);
  EXPECT_GT(counter("instance.failed"), 0u) << "no tree died in the kill";

  // Quiescence: nothing pending at the spout or its tracker.
  Container* c0 = cluster.GetContainer(0);
  EXPECT_NE(c0, nullptr);
  if (c0 != nullptr) {
    for (const auto& inst : c0->instances()) {
      EXPECT_EQ(inst->pending_count(), 0);
    }
    EXPECT_EQ(c0->stream_manager()->acks_pending(), 0u);
  }

  EXPECT_TRUE(cluster.Kill().ok());
  return trace;
}

class FailureRecoveryTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() { Logging::SetLevel(LogLevel::kError); }
};

TEST_P(FailureRecoveryTest, KillDetectRestartReplayDeterministic) {
  // Two identical universes: the entire recovery conversation — heartbeat
  // silence, liveness declaration, framework routing, re-registration,
  // parked-envelope drain, ack-timeout replay — must replay identically.
  const std::vector<uint64_t> first = RunKillRecoveryUniverse(GetParam());
  const std::vector<uint64_t> second = RunKillRecoveryUniverse(GetParam());
  EXPECT_EQ(first, second) << "non-deterministic recovery under "
                           << GetParam();
  EXPECT_FALSE(first.empty());
}

INSTANTIATE_TEST_SUITE_P(AllSchedulerKinds, FailureRecoveryTest,
                         ::testing::Values("local", "aurora", "marathon",
                                           "yarn", "slurm"),
                         [](const auto& info) { return info.param; });

// Threaded mode: the same kill, detected by the live monitor reactor on
// the real clock — no hand-driven ticks. Slower and coarser than the
// step-mode replay, but it proves the monitor loop itself works.
TEST(FailureRecoveryThreadedTest, MonitorDetectsAndRecoversLive) {
  Logging::SetLevel(LogLevel::kError);
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 2);
  config.SetInt(config_keys::kSchedulerMonitorIntervalMs, 50);
  config.SetInt(config_keys::kSchedulerMonitorMissLimit, 2);
  config.SetInt(config_keys::kMetricsCollectIntervalMs, 20);
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMessageTimeoutMs, 1500);
  config.SetInt(config_keys::kMaxSpoutPending, 128);
  LocalCluster cluster(config);

  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 500;
  spout_options.words_per_call = 2;
  spout_options.replay_failed = true;
  auto topology = workloads::BuildWordCountTopology("recovery-threaded", 1, 1,
                                                    spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.WaitForCounter("instance.acked", 200, 30000).ok());

  ASSERT_TRUE(cluster.FailContainer(1).ok());
  ASSERT_EQ(cluster.num_live_containers(), 1);

  // The monitor must detect the silence and restart within seconds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (cluster.recovery_metrics()->GetCounter("recovery.restarts")->value() ==
             0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(
      cluster.recovery_metrics()->GetCounter("recovery.deaths")->value(), 1u);
  EXPECT_EQ(
      cluster.recovery_metrics()->GetCounter("recovery.restarts")->value(),
      1u);
  EXPECT_EQ(cluster.num_live_containers(), 2);
  // Detect latency was measured and is at least one monitor interval.
  EXPECT_GE(cluster.recovery_metrics()
                ->GetGauge("recovery.detect.last.ms")
                ->value(),
            50);

  // Flow resumes through the replacement, and replayed trees complete.
  const uint64_t acked = cluster.SumCounter("instance.acked");
  EXPECT_TRUE(
      cluster.WaitForCounter("instance.acked", acked + 500, 30000).ok());
  ASSERT_TRUE(cluster.Kill().ok());
}

// Seeded random kills from the test thread, bounded by the max-kills cap,
// land while the monitor detects and recovers the earlier ones. The
// cluster must absorb every death and keep acking tuple trees afterwards.
TEST(FailureRecoveryThreadedTest, ChaosKillsAreAbsorbed) {
  Logging::SetLevel(LogLevel::kError);
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 2);
  config.SetInt(config_keys::kSchedulerMonitorIntervalMs, 50);
  config.SetInt(config_keys::kSchedulerMonitorMissLimit, 2);
  config.SetInt(config_keys::kMetricsCollectIntervalMs, 20);
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMessageTimeoutMs, 1500);
  config.SetInt(config_keys::kMaxSpoutPending, 128);
  LocalCluster cluster(config);

  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 500;
  spout_options.words_per_call = 2;
  spout_options.replay_failed = true;
  auto topology = workloads::BuildWordCountTopology("recovery-chaos", 1, 1,
                                                    spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());

  // Run the schedule to its kill budget, then wait for every kill to be
  // recovered.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const int kills = KillSchedule{}.Run(&cluster, deadline);
  const auto recovery = [&](const char* metric) {
    return cluster.recovery_metrics()->GetCounter(metric)->value();
  };
  while (std::chrono::steady_clock::now() < deadline &&
         recovery("recovery.restarts") < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(kills, 2);
  EXPECT_GE(recovery("recovery.deaths"), 2u);
  EXPECT_GE(recovery("recovery.restarts"), 2u);
  EXPECT_EQ(cluster.num_live_containers(), 2);

  // Liveness after the storm: acks still complete.
  const uint64_t acked = cluster.SumCounter("instance.acked");
  EXPECT_TRUE(
      cluster.WaitForCounter("instance.acked", acked + 500, 30000).ok());
  ASSERT_TRUE(cluster.Kill().ok());
}

}  // namespace
}  // namespace runtime
}  // namespace heron
