// End-to-end integration tests: real WordCount topologies on a
// LocalCluster — live Stream Managers, Heron Instances and acking, on
// threads, through the full §II submission pipeline.

#include "runtime/local_cluster.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/clock.h"
#include "common/logging.h"
#include "smgr/stream_manager.h"
#include "workloads/word_count.h"

namespace heron {
namespace runtime {
namespace {

class LocalClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Logging::SetLevel(LogLevel::kWarning); }

  Config BaseConfig() {
    Config config;
    config.SetInt(config_keys::kNumContainersHint, 2);
    return config;
  }
};

TEST_F(LocalClusterTest, WordCountWithoutAcksDeliversTuples) {
  LocalCluster cluster(BaseConfig());
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 1000;
  spout_options.words_per_call = 8;
  auto topology = workloads::BuildWordCountTopology("wc-noack", 2, 2,
                                                    spout_options);
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  ASSERT_TRUE(cluster.Submit(*topology).ok());

  // Tuples must flow from spouts through the SMGRs into the bolts.
  EXPECT_TRUE(
      cluster.WaitForCounter("instance.executed", 10000, 30000).ok());
  EXPECT_GE(cluster.SumCounter("instance.emitted"), 10000u);
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, WordCountWithAcksCompletesTupleTrees) {
  Config config = BaseConfig();
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMaxSpoutPending, 1000);
  LocalCluster cluster(config);

  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 1000;
  spout_options.words_per_call = 4;
  auto topology = workloads::BuildWordCountTopology("wc-ack", 2, 2,
                                                    spout_options);
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  ASSERT_TRUE(cluster.Submit(*topology).ok());

  // Acks must travel back: bolt → SMGR tracker → spout.
  EXPECT_TRUE(cluster.WaitForCounter("instance.acked", 5000, 30000).ok());
  EXPECT_EQ(cluster.SumCounter("instance.failed"), 0u);
  // End-to-end latency was measured for completed trees.
  EXPECT_GT(cluster.CompleteLatencyQuantile(0.5), 0u);
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, FiniteStreamAcksEveryTree) {
  // A finite stream under light, bounded load: every emitted tracked
  // tuple is eventually acked, never failed.
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 100;
  spout_options.emit_limit = 2000;  // Finite stream per spout.

  Config config = BaseConfig();
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMaxSpoutPending, 500);
  auto topology = workloads::BuildWordCountTopology(
      "wc-finite", 1, 2, spout_options, config);
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  LocalCluster cluster(config);
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  const Status wait = cluster.WaitForCounter("instance.acked", 2000, 60000);
  if (!wait.ok()) {
    // Dump the cluster state so a hung run (e.g. under a sanitizer's
    // scheduler) is diagnosable from the ctest log alone.
    for (const char* counter :
         {"instance.emitted", "instance.acked", "instance.failed",
          "instance.executed"}) {
      fprintf(stderr, "DIAG %-24s = %llu\n", counter,
              static_cast<unsigned long long>(cluster.SumCounter(counter)));
    }
    for (const char* counter :
         {"smgr.acks.applied", "smgr.roots.completed", "smgr.roots.failed",
          "smgr.roots.timeout", "smgr.tuples.routed", "smgr.batches.out"}) {
      fprintf(stderr, "DIAG %-24s = %llu\n", counter,
              static_cast<unsigned long long>(cluster.SumSmgrCounter(counter)));
    }
    for (const char* gauge : {"smgr.retry.depth", "smgr.backpressure.active",
                              "smgr.backpressure.remote"}) {
      fprintf(stderr, "DIAG %-24s = %lld\n", gauge,
              static_cast<long long>(cluster.SumSmgrGauge(gauge)));
    }
    // The flight recorder is the "what was the control plane doing"
    // companion to the counters: dump the merged stream, then write the
    // full timeline next to the ctest log for offline inspection.
    for (const observability::JournalEvent& e : cluster.CollectJournal()) {
      fprintf(stderr, "DIAG journal[%llu] %s origin=%d at=%lld args=%lld,%lld %s\n",
              static_cast<unsigned long long>(e.seq),
              observability::JournalEventTypeName(e.type), e.origin,
              static_cast<long long>(e.at_nanos),
              static_cast<long long>(e.arg0),
              static_cast<long long>(e.arg1), e.detail.c_str());
    }
    const char* diag_path = "FiniteStreamAcksEveryTree_failure_timeline.json";
    if (cluster.DumpTimeline(diag_path).ok()) {
      fprintf(stderr, "DIAG timeline written to %s\n", diag_path);
    }
    fprintf(stderr, "DIAG wait status: %s\n", wait.ToString().c_str());
  }
  ASSERT_TRUE(wait.ok());
  EXPECT_EQ(cluster.SumCounter("instance.failed"), 0u);
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, MaxSpoutPendingBoundsInFlightTuples) {
  Config config = BaseConfig();
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMaxSpoutPending, 50);
  LocalCluster cluster(config);

  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 100;
  auto topology =
      workloads::BuildWordCountTopology("wc-msp", 1, 1, spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.WaitForCounter("instance.acked", 500, 30000).ok());

  // The §V-B invariant: pending never exceeds the configured cap.
  Container* c0 = cluster.GetContainer(0);
  ASSERT_NE(c0, nullptr);
  for (int probe = 0; probe < 50; ++probe) {
    for (const auto& inst : c0->instances()) {
      EXPECT_LE(inst->pending_count(), 50);
    }
  }
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, ScaleUpAddsInstancesAndKeepsFlowing) {
  LocalCluster cluster(BaseConfig());
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 500;
  spout_options.words_per_call = 4;
  auto topology =
      workloads::BuildWordCountTopology("wc-scale", 1, 1, spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.WaitForCounter("instance.executed", 1000, 30000).ok());

  // Scale the bolts 1 → 3 (§IV-A repack + §IV-B onUpdate).
  ASSERT_TRUE(cluster.Scale("count", 3).ok()) << "scale failed";
  EXPECT_EQ(cluster.current_packing_plan().TasksOfComponent("count").size(),
            3u);

  const uint64_t executed_after_scale =
      cluster.SumCounter("instance.executed");
  EXPECT_TRUE(cluster
                  .WaitForCounter("instance.executed",
                                  executed_after_scale + 2000, 30000)
                  .ok());
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, RestartContainerRecovers) {
  LocalCluster cluster(BaseConfig());
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 500;
  spout_options.words_per_call = 4;
  auto topology =
      workloads::BuildWordCountTopology("wc-restart", 2, 2, spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.WaitForCounter("instance.executed", 1000, 30000).ok());

  ASSERT_TRUE(cluster.RestartContainer(1).ok());
  const uint64_t executed = cluster.SumCounter("instance.executed");
  EXPECT_TRUE(
      cluster.WaitForCounter("instance.executed", executed + 1000, 30000)
          .ok());
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, KillStopsEverything) {
  LocalCluster cluster(BaseConfig());
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 100;
  auto topology =
      workloads::BuildWordCountTopology("wc-kill", 1, 1, spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.Kill().ok());
  EXPECT_EQ(cluster.num_live_containers(), 0);
  EXPECT_FALSE(cluster.running());
  // Re-submitting on the same cluster works after a kill.
  auto again =
      workloads::BuildWordCountTopology("wc-kill-2", 1, 1, spout_options);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(cluster.Submit(*again).ok());
  EXPECT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, SubmitRejectsUnknownSchedulerAndExecutionModes) {
  const std::pair<const char*, const char*> bad_settings[] = {
      {config_keys::kSchedulerKind, "mesos"},
      {config_keys::kExecutionMode, "fibers"},
  };
  for (const auto& [key, value] : bad_settings) {
    Config config = BaseConfig();
    config.Set(key, value);
    LocalCluster cluster(config);
    auto topology = workloads::BuildWordCountTopology("wc-reject", 1, 1);
    ASSERT_TRUE(topology.ok());
    EXPECT_TRUE(cluster.Submit(*topology).IsInvalidArgument())
        << key << "=" << value;
    EXPECT_FALSE(cluster.running());
    EXPECT_EQ(cluster.num_live_containers(), 0);
  }
}

// Plan-swap hygiene for a removed container that is already dead: the
// repack drops a hard-killed container X, so SwapPlan must stop expecting
// X's heartbeats and tell every peer SMGR that X's backpressure episode is
// over. Scale restarts the cluster's own survivors onto the new plan, so
// their throttle state starts fresh either way; a probe SMGR registered on
// the cluster transport stands for a peer that outlives the swap and must
// hear the release.
TEST_F(LocalClusterTest, ScaleDownForgetsDeadContainerAndReleasesItsThrottle) {
  constexpr int64_t kMonitorIntervalMs = 100;
  constexpr int kMissLimit = 3;
  constexpr int64_t kCollectIntervalMs = 50;
  constexpr ContainerId kVictim = 2;
  constexpr ContainerId kProbe = 99;
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 3);
  config.SetBool(config_keys::kClusterStepMode, true);
  config.SetInt(config_keys::kSchedulerMonitorIntervalMs, kMonitorIntervalMs);
  config.SetInt(config_keys::kSchedulerMonitorMissLimit, kMissLimit);
  config.SetInt(config_keys::kMetricsCollectIntervalMs, kCollectIntervalMs);
  SimClock clock(0);
  LocalCluster cluster(config, &clock);
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 100;
  spout_options.emit_limit = 50;
  // One spout and two bolts round-robined over three containers: the
  // second bolt (task 2) is container 2's only instance.
  auto topology =
      workloads::BuildWordCountTopology("wc-swap", 1, 2, spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_EQ(*cluster.physical_plan()->ContainerOfTask(2), kVictim);
  const auto rounds = [&](int n) {
    for (int i = 0; i < n; ++i) {
      clock.AdvanceMillis(kCollectIntervalMs);
      cluster.StepAll();
      cluster.MonitorTick();
    }
  };
  rounds(2);

  smgr::StreamManager::Options probe_options;
  probe_options.container = kProbe;
  smgr::StreamManager probe(probe_options, cluster.physical_plan(),
                            cluster.transport(), &clock);
  ASSERT_TRUE(probe.StartStepMode().ok());

  // 1. Container 2 starts a backpressure episode: every peer SMGR, the
  //    probe included, takes a throttle ref for it.
  proto::BackpressureMsg start;
  start.initiator = kVictim;
  start.retry_depth = 4096;
  for (const ContainerId peer : {ContainerId{0}, ContainerId{1}, kProbe}) {
    proto::Envelope env(proto::MessageType::kStartBackpressure,
                        start.SerializeAsBuffer());
    ASSERT_TRUE(cluster.transport()
                    ->TrySend(smgr::Transport::SmgrEndpoint(peer), &env)
                    .ok());
  }
  cluster.StepAll();
  probe.loop()->RunOnce();
  ASSERT_TRUE(probe.backpressure());
  ASSERT_TRUE(cluster.GetContainer(1)->stream_manager()->backpressure());

  // 2. It dies mid-episode; 3. the repack drops it before the monitor
  //    declares the death.
  ASSERT_TRUE(cluster.FailContainer(kVictim).ok());
  ASSERT_TRUE(cluster.Scale("count", 1).ok());
  ASSERT_EQ(cluster.current_packing_plan().FindContainer(kVictim), nullptr);

  // 4. The release reached the peer, and no survivor is left throttled.
  probe.loop()->RunOnce();
  EXPECT_FALSE(probe.backpressure());
  EXPECT_EQ(probe.remote_backpressure_initiators(), 0u);
  for (const ContainerId survivor : {0, 1}) {
    ASSERT_NE(cluster.GetContainer(survivor), nullptr);
    EXPECT_FALSE(
        cluster.GetContainer(survivor)->stream_manager()->backpressure());
  }
  // The monitor no longer expects container 2: well past interval ×
  // miss-limit of silence, no death is recorded.
  rounds(3 * kMissLimit * kMonitorIntervalMs / kCollectIntervalMs);
  EXPECT_EQ(
      cluster.recovery_metrics()->GetCounter("recovery.deaths")->value(), 0u);
  EXPECT_EQ(cluster.num_live_containers(), 2);

  probe.Stop();
  ASSERT_TRUE(cluster.Kill().ok());
}

}  // namespace
}  // namespace runtime
}  // namespace heron
