// End-to-end integration tests: real WordCount topologies on a
// LocalCluster — live Stream Managers, Heron Instances and acking, on
// threads, through the full §II submission pipeline.

#include "runtime/local_cluster.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "common/ids.h"
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

/// What the spout side of FailingBoltFailsExactlyItsTrees saw: Fail calls
/// per message id and the Ack count. Spouts run on engine threads.
struct SpoutLedger {
  std::mutex mu;
  std::map<int64_t, int> fails;
  uint64_t acks = 0;
};

/// Emits message ids 1..limit, each as a tracked tuple whose only value is
/// its own id, and records every Ack/Fail in the ledger.
class SequenceSpout final : public api::ISpout {
 public:
  SequenceSpout(int64_t limit, std::shared_ptr<SpoutLedger> ledger)
      : limit_(limit), ledger_(std::move(ledger)) {}
  void Open(const Config&, api::TopologyContext*,
            api::ISpoutOutputCollector* collector) override {
    collector_ = collector;
  }
  void NextTuple() override {
    if (next_ > limit_) return;
    collector_->Emit({api::Value(next_)}, next_);
    ++next_;
  }
  void Ack(int64_t) override {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    ++ledger_->acks;
  }
  void Fail(int64_t message_id) override {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    ++ledger_->fails[message_id];
  }

 private:
  const int64_t limit_;
  std::shared_ptr<SpoutLedger> ledger_;
  api::ISpoutOutputCollector* collector_ = nullptr;
  int64_t next_ = 1;
};

/// Fails every input whose id is a multiple of 10 and acks the rest.
class FailTenthBolt final : public api::IBolt {
 public:
  void Prepare(const Config&, api::TopologyContext*,
               api::IBoltOutputCollector* collector) override {
    collector_ = collector;
  }
  void Execute(const api::Tuple& input) override {
    if (input.GetInt64(0) % 10 == 0) {
      collector_->Fail(input);
    } else {
      collector_->Ack(input);
    }
  }

 private:
  api::IBoltOutputCollector* collector_ = nullptr;
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

// Multi-level trees: every word crosses two relay stages before a count
// bolt, so each tree is three anchored levels deep, and every one of them
// must close exactly once, as an ack.
TEST_F(LocalClusterTest, WordChainAcksEveryTreeOnce) {
  constexpr uint64_t kWords = 2000;
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 100;
  spout_options.emit_limit = kWords;

  Config config = BaseConfig();
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMaxSpoutPending, 500);
  auto topology = workloads::BuildWordChainTopology(
      "chain-finite", 1, /*relay_stages=*/2, /*relay_parallelism=*/2,
      /*bolts=*/2, spout_options, config);
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  LocalCluster cluster(config);
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.WaitForCounter("instance.acked", kWords, 60000).ok());

  EXPECT_EQ(cluster.SumCounter("instance.acked"), kWords);
  EXPECT_EQ(cluster.SumCounter("instance.failed"), 0u);
  EXPECT_EQ(cluster.SumCounter("instance.emitted", "word"), kWords);
  EXPECT_EQ(cluster.SumCounter("instance.executed", "relay0"), kWords);
  EXPECT_EQ(cluster.SumCounter("instance.executed", "relay1"), kWords);
  EXPECT_EQ(cluster.SumCounter("instance.executed", "count"), kWords);
  EXPECT_EQ(cluster.SumSmgrCounter("smgr.roots.completed"), kWords);
  EXPECT_EQ(cluster.SumSmgrCounter("smgr.roots.timeout"), 0u);
  ASSERT_TRUE(cluster.Kill().ok());
}

// A bolt's explicit Fail closes its tree as failed at once: the spout's
// Fail sees exactly the failed message ids, once each, and every other
// tree is acked.
TEST_F(LocalClusterTest, FailingBoltFailsExactlyItsTrees) {
  constexpr int64_t kTuples = 1000;
  constexpr uint64_t kFailed = kTuples / 10;
  auto ledger = std::make_shared<SpoutLedger>();
  api::TopologyBuilder builder("fail-tenth");
  builder
      .SetSpout(
          "seq",
          [ledger] {
            return std::make_unique<SequenceSpout>(int64_t{kTuples}, ledger);
          },
          1)
      .OutputFields({"id"});
  builder
      .SetBolt("judge", [] { return std::make_unique<FailTenthBolt>(); }, 2)
      .ShuffleGrouping("seq");
  Config config = BaseConfig();
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMaxSpoutPending, 200);
  // Far beyond the wait below: every failure must come from the bolt.
  config.SetInt(config_keys::kMessageTimeoutMs, 600000);
  *builder.mutable_config() = config;
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  LocalCluster cluster(config);
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  // Every tree closes at its spout, acked or failed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (cluster.SumCounter("instance.acked") +
             cluster.SumCounter("instance.failed") <
         static_cast<uint64_t>(kTuples)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  EXPECT_EQ(cluster.SumCounter("instance.emitted", "seq"),
            static_cast<uint64_t>(kTuples));
  EXPECT_EQ(cluster.SumCounter("instance.failed"), kFailed);
  EXPECT_EQ(cluster.SumCounter("instance.acked"), kTuples - kFailed);
  EXPECT_EQ(cluster.SumSmgrCounter("smgr.roots.failed"), kFailed);
  EXPECT_EQ(cluster.SumSmgrCounter("smgr.roots.timeout"), 0u);
  ASSERT_TRUE(cluster.Kill().ok());

  std::map<int64_t, int> expected;
  for (int64_t id = 10; id <= kTuples; id += 10) expected[id] = 1;
  std::lock_guard<std::mutex> lock(ledger->mu);
  EXPECT_EQ(ledger->fails, expected);
  EXPECT_EQ(ledger->acks, kTuples - kFailed);
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

// The cooperative pool's sizing is checked in every execution mode. The
// cluster runs in thread mode here, so that even without the check no pool
// is built from a wrapped worker count.
TEST_F(LocalClusterTest, SubmitRejectsBadSchedulerAndExecutionSettings) {
  const std::pair<const char*, const char*> bad_settings[] = {
      {config_keys::kSchedulerKind, "mesos"},
      {config_keys::kExecutionMode, "fibers"},
      {config_keys::kExecutionWorkers, "-1"},
      {config_keys::kExecutionSliceNanos, "0"},
      {config_keys::kExecutionSliceNanos, "-200000"},
      {config_keys::kExecutionSliceNanos, "1000000001"},
  };
  for (const auto& [key, value] : bad_settings) {
    Config config = BaseConfig();
    config.Set(config_keys::kExecutionMode, "thread");
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

// heron.statemgr.kind selects the cluster's State Manager: under LOCAL_FILE
// the topology's packing plan is a node directory under the configured
// root while the topology runs, and an unknown kind fails the submit.
TEST_F(LocalClusterTest, StateManagerKindSelectsTheBackend) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      IdGenerator::Next("heron-local-cluster-test");
  struct RemoveRoot {
    std::filesystem::path path;
    ~RemoveRoot() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_root{root};
  Config config = BaseConfig();
  config.SetBool(config_keys::kAckingEnabled, true);
  config.Set(config_keys::kStateManagerKind, "LOCAL_FILE");
  config.Set(config_keys::kStateManagerRoot, root.string());
  LocalCluster cluster(config);
  auto topology = workloads::BuildWordCountTopology("wc-file", 1, 1);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  EXPECT_TRUE(cluster.WaitForCounter("instance.acked", 100, 30000).ok());
  EXPECT_EQ(cluster.state_manager()->Name(), "LOCAL_FILE");
  EXPECT_TRUE(std::filesystem::is_directory(root / "topologies" / "wc-file" /
                                            "packingplan"));
  ASSERT_TRUE(cluster.Kill().ok());

  Config unknown = BaseConfig();
  unknown.Set(config_keys::kStateManagerKind, "ETCD");
  LocalCluster rejected(unknown);
  EXPECT_TRUE(rejected.Submit(*topology).IsNotFound());
  EXPECT_FALSE(rejected.running());
  EXPECT_EQ(rejected.state_manager(), nullptr);
}

// A live cooperative cluster reports its pool in the snapshot and names
// its tasklets in the timeline: each of the 2 containers runs an SMGR, 2
// instances and housekeeping, so 8 tasklets share the 2 workers.
TEST_F(LocalClusterTest, CooperativeSnapshotReportsTheScheduler) {
  Config config = BaseConfig();
  config.Set(config_keys::kExecutionMode, "cooperative");
  config.SetInt(config_keys::kExecutionWorkers, 2);
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMaxSpoutPending, 1000);
  LocalCluster cluster(config);
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 1000;
  spout_options.words_per_call = 4;
  auto topology = workloads::BuildWordCountTopology("wc-coop-snapshot", 2, 2,
                                                    spout_options);
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.WaitForCounter("instance.acked", 2000, 30000).ok());

  const observability::TopologySnapshot snapshot = cluster.BuildSnapshot();
  EXPECT_EQ(snapshot.scheduler.workers, 2u);
  EXPECT_EQ(snapshot.scheduler.tasklets, 8u);
  EXPECT_GT(snapshot.scheduler.slices, 0u);
  EXPECT_GT(snapshot.scheduler.occupancy, 0.0);
  EXPECT_LE(snapshot.scheduler.occupancy, 1.0);
  EXPECT_LE(snapshot.scheduler.busy_ms, snapshot.scheduler.wall_ms);
  EXPECT_NE(cluster.BuildTimelineJson().find("smgr-0"), std::string::npos);
  ASSERT_TRUE(cluster.Kill().ok());
}

// Plan-swap hygiene for a removed container that is already dead: the
// repack drops a hard-killed container X, so SwapPlan must stop expecting
// X's heartbeats, and no survivor may stay throttled by X's backpressure
// episode. Scale restarts every survivor onto the new plan, and a stopping
// SMGR drops the throttle refs its remote initiators held, so the
// survivors' throttle state starts fresh.
TEST_F(LocalClusterTest, ScaleDownForgetsDeadContainerAndReleasesItsThrottle) {
  constexpr int64_t kMonitorIntervalMs = 100;
  constexpr int kMissLimit = 3;
  constexpr int64_t kCollectIntervalMs = 50;
  constexpr ContainerId kVictim = 2;
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

  // 1. Container 2 starts a backpressure episode: every peer SMGR takes a
  //    throttle ref for it.
  proto::BackpressureMsg start;
  start.initiator = kVictim;
  start.retry_depth = 4096;
  for (const ContainerId peer : {ContainerId{0}, ContainerId{1}}) {
    proto::Envelope env(proto::MessageType::kStartBackpressure,
                        start.SerializeAsBuffer());
    ASSERT_TRUE(cluster.transport()
                    ->TrySend(smgr::Transport::SmgrEndpoint(peer), &env)
                    .ok());
  }
  cluster.StepAll();
  ASSERT_TRUE(cluster.GetContainer(1)->stream_manager()->backpressure());

  // 2. It dies mid-episode; 3. the repack drops it before the monitor
  //    declares the death.
  ASSERT_TRUE(cluster.FailContainer(kVictim).ok());
  ASSERT_TRUE(cluster.Scale("count", 1).ok());
  ASSERT_EQ(cluster.current_packing_plan().FindContainer(kVictim), nullptr);

  // 4. No survivor is left throttled.
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

  ASSERT_TRUE(cluster.Kill().ok());
}

}  // namespace
}  // namespace runtime
}  // namespace heron
