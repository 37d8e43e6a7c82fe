// End-to-end integration tests: real WordCount topologies on a
// LocalCluster — live Stream Managers, Heron Instances and acking, on
// threads, through the full §II submission pipeline.

#include "runtime/local_cluster.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/logging.h"
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

}  // namespace
}  // namespace runtime
}  // namespace heron
