// Exactly-once stateful processing, asserted end to end: aligned
// checkpoint barriers snapshot the topology's state into the state tree,
// and a container death in exactly-once mode rolls every container back
// to the latest globally-complete checkpoint — the spout deterministically
// re-emits only the post-checkpoint suffix, the bolt recounts it exactly
// once, and the topology converges to the same state it would have
// reached with no failure at all.
//
// The acceptance bar is the two-universe comparison: a universe that is
// hard-killed mid-stream and recovered via checkpoint restore must
// produce byte-identical per-task snapshots to a twin universe that never
// failed — across all three transport wires (in-process, socket, shm).
// On top of that, the barrier-alignment edge cases: a barrier parked
// behind backpressured data must not overtake it, a kill during an
// in-flight checkpoint must abort it (not wedge the coordinator), and
// seeded random kills landing on in-flight checkpoints must all be
// absorbed.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "instance/instance.h"
#include "packing/round_robin_packing.h"
#include "proto/messages.h"
#include "runtime/local_cluster.h"
#include "serde/wire.h"
#include "smgr/stream_manager.h"
#include "statemgr/in_memory_state_manager.h"
#include "statemgr/state_manager.h"
#include "tests/common/kill_schedule.h"
#include "workloads/word_count.h"

namespace heron {
namespace runtime {
namespace {

constexpr uint64_t kEmitLimit = 200;
constexpr int64_t kMonitorIntervalMs = 100;
constexpr int kMissLimit = 3;
constexpr int64_t kCollectIntervalMs = 50;
constexpr char kTopologyName[] = "ckpt-recovery";

Config StepClusterConfig(const std::string& transport_mode) {
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 2);
  config.SetBool(config_keys::kClusterStepMode, true);
  config.SetInt(config_keys::kSchedulerMonitorIntervalMs, kMonitorIntervalMs);
  config.SetInt(config_keys::kSchedulerMonitorMissLimit, kMissLimit);
  config.SetInt(config_keys::kMetricsCollectIntervalMs, kCollectIntervalMs);
  config.Set(config_keys::kTransportMode, transport_mode);
  return config;
}

Config ExactlyOnceTopologyConfig() {
  Config config;
  config.SetBool(config_keys::kAckingEnabled, true);
  // Far beyond the run's horizon: checkpoint restore owns recovery, so no
  // ack-timeout replay may fire and double-deliver.
  config.SetInt(config_keys::kMessageTimeoutMs, 600000);
  config.SetInt(config_keys::kMaxSpoutPending, 16);
  config.Set(config_keys::kCheckpointMode, "exactly-once");
  // Interval 0: the tests trigger checkpoints explicitly, so the barrier
  // cut lands at a deterministic point in the step schedule.
  return config;
}

/// Decodes a CountBolt snapshot (sorted `word, count` pairs) and returns
/// the total number of counted words.
uint64_t SumBoltCounts(const serde::Buffer& snapshot) {
  uint64_t total = 0;
  serde::WireDecoder dec(snapshot);
  while (!dec.AtEnd()) {
    auto tag = dec.ReadTag();
    if (!tag.ok() || *tag == 0) break;
    if (serde::TagFieldNumber(*tag) == 2) {
      auto v = dec.ReadUint64();
      if (!v.ok()) break;
      total += *v;
    } else if (!dec.SkipField(serde::TagWireType(*tag)).ok()) {
      break;
    }
  }
  return total;
}

/// Everything the failed-and-restored universe must reproduce from the
/// never-failed one.
struct CheckpointUniverse {
  bool ok = false;
  uint64_t final_ckpt = 0;
  /// Task id → snapshot bytes of the final (quiescent) checkpoint.
  std::map<int, std::string> snapshots;
  uint64_t counted = 0;  ///< Sum of the bolt snapshots' word counts.
  uint64_t restores = 0;
  int64_t epoch = 0;
};

CheckpointUniverse RunCheckpointUniverse(const std::string& transport_mode,
                                         bool kill) {
  CheckpointUniverse out;
  SimClock clock(0);
  LocalCluster cluster(StepClusterConfig(transport_mode), &clock);

  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 200;
  spout_options.words_per_call = 2;
  spout_options.emit_limit = kEmitLimit;
  // replay_failed stays off: in exactly-once mode the checkpoint rollback
  // owns recovery; ack-replay would double-deliver.
  auto topology = workloads::BuildWordCountTopology(
      kTopologyName, /*spouts=*/1, /*bolts=*/1, spout_options,
      ExactlyOnceTopologyConfig());
  EXPECT_TRUE(topology.ok());
  if (!cluster.Submit(*topology).ok()) return out;
  EXPECT_EQ(cluster.num_live_containers(), 2);
  // RR packing: spout task 0 → container 0 (with TMaster + coordinator),
  // bolt task 1 → container 1 (the victim).

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
  /// Triggers a checkpoint and steps the universe until the coordinator
  /// observes global completion.
  const auto run_checkpoint = [&]() -> uint64_t {
    const uint64_t id = cluster.TriggerCheckpoint();
    EXPECT_GT(id, 0u);
    int waited = 0;
    while (cluster.checkpoint_coordinator()->latest_complete() < id &&
           waited < 500) {
      ++waited;
      rounds(1);
      cluster.MonitorTick();  // Coordinator completion poll rides it.
    }
    EXPECT_EQ(cluster.checkpoint_coordinator()->latest_complete(), id)
        << "checkpoint " << id << " never completed";
    return id;
  };

  // Phase 1: pump the pipeline, then cut checkpoint 1 mid-stream — data
  // is still in flight everywhere when the barrier passes through.
  rounds(6);
  EXPECT_GT(cluster.SumCounter("instance.emitted"), 0u);
  const uint64_t ck1 = run_checkpoint();

  // Phase 2: more post-checkpoint data. In the kill universe all of it —
  // spout emissions, bolt counts, in-flight tuples — is of the doomed
  // epoch and must be discarded by the rollback, then re-played.
  rounds(6);

  if (kill) {
    // The kill must land mid-stream, or the restore would have no suffix
    // to re-emit and the test would pass vacuously.
    EXPECT_LT(cluster.SumCounter("instance.emitted"), kEmitLimit);
    EXPECT_TRUE(cluster.FailContainer(1).ok());
    int detect_ticks = 0;
    while (recovery("recovery.deaths") == 0 && detect_ticks < 30) {
      ++detect_ticks;
      clock.AdvanceMillis(kCollectIntervalMs);
      cluster.StepAll();
      cluster.MonitorTick();
    }
    EXPECT_EQ(recovery("recovery.deaths"), 1u);
    // Exactly-once recovery is a global rollback: every container (the
    // dead one and the survivor) restarted on checkpoint ck1.
    EXPECT_EQ(recovery("recovery.checkpoint.restores"), 1u);
    EXPECT_EQ(cluster.num_live_containers(), 2);
    EXPECT_EQ(cluster.checkpoint_epoch(), 1);
    EXPECT_EQ(cluster.checkpoint_coordinator()->latest_complete(), ck1);
  }

  // Phase 3: run to quiescence — the spout finishes its emit limit and
  // every tree drains. Stability of the counter triple over 50 straight
  // rounds is the quiescence signal (counters reset on restart, so an
  // absolute ack target cannot be used in the kill universe).
  uint64_t last_emitted = ~0ull, last_executed = ~0ull, last_acked = ~0ull;
  int stable = 0;
  for (int r = 0; r < 8000 && stable < 50; ++r) {
    rounds(1);
    const uint64_t emitted = cluster.SumCounter("instance.emitted");
    const uint64_t executed = cluster.SumCounter("instance.executed");
    const uint64_t acked = cluster.SumCounter("instance.acked");
    if (emitted == last_emitted && executed == last_executed &&
        acked == last_acked) {
      ++stable;
    } else {
      stable = 0;
      last_emitted = emitted;
      last_executed = executed;
      last_acked = acked;
    }
  }
  EXPECT_GE(stable, 50) << "universe did not quiesce";

  // Phase 4: the final checkpoint at quiescence is the universe's
  // observable state: spout cursor at the emit limit, bolt table with
  // every word counted exactly once.
  out.final_ckpt = run_checkpoint();

  // Phase 5: read back every task's snapshot bytes.
  const auto plan = cluster.physical_plan();
  EXPECT_NE(plan, nullptr);
  for (const TaskId task : plan->all_tasks()) {
    const auto data = cluster.state_manager()->GetNodeData(
        statemgr::paths::CheckpointTask(kTopologyName, out.final_ckpt, task));
    EXPECT_TRUE(data.ok()) << "no snapshot for task " << task;
    out.snapshots[task] = data.ok() ? *data : std::string();
    const api::ComponentDef* def = plan->ComponentOfTask(task);
    if (data.ok() && def != nullptr &&
        def->kind == api::ComponentKind::kBolt) {
      out.counted += SumBoltCounts(*data);
    }
  }
  out.restores = recovery("recovery.checkpoint.restores");
  out.epoch = cluster.checkpoint_epoch();
  out.ok = cluster.Kill().ok();
  return out;
}

class CheckpointRecoveryTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() { Logging::SetLevel(LogLevel::kError); }
};

TEST_P(CheckpointRecoveryTest, KillRestoreIsByteIdenticalToNoFailureRun) {
  const CheckpointUniverse failed =
      RunCheckpointUniverse(GetParam(), /*kill=*/true);
  const CheckpointUniverse clean =
      RunCheckpointUniverse(GetParam(), /*kill=*/false);
  ASSERT_TRUE(failed.ok);
  ASSERT_TRUE(clean.ok);

  // The exactly-once guarantee, stated as bytes: after kill → rollback →
  // deterministic re-emission, every task's snapshot is identical to the
  // universe where the kill never happened — same spout cursor (RNG
  // state, emission count, message ids), same sorted bolt table.
  EXPECT_EQ(failed.final_ckpt, clean.final_ckpt);
  EXPECT_EQ(failed.snapshots, clean.snapshots)
      << "restored state diverged from the no-failure universe";
  EXPECT_EQ(failed.snapshots.size(), 2u);

  // Counts match exactly: every emitted word counted once — none lost
  // with the container, none double-counted by the replay.
  EXPECT_EQ(failed.counted, kEmitLimit);
  EXPECT_EQ(clean.counted, kEmitLimit);

  EXPECT_EQ(failed.restores, 1u);
  EXPECT_EQ(failed.epoch, 1);
  EXPECT_EQ(clean.restores, 0u);
  EXPECT_EQ(clean.epoch, 0);
}

INSTANTIATE_TEST_SUITE_P(AllTransportModes, CheckpointRecoveryTest,
                         ::testing::Values("in-process", "socket", "shm"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// A kill while a checkpoint is in flight: the barrier died with the bolt
// container, so the checkpoint can never complete. The coordinator must
// abort it during the rollback — not wedge — and the next checkpoint
// after recovery must complete normally.
TEST(CheckpointRecoveryEdgeCases, KillDuringInFlightCheckpointAborts) {
  Logging::SetLevel(LogLevel::kError);
  SimClock clock(0);
  LocalCluster cluster(StepClusterConfig("in-process"), &clock);

  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 200;
  spout_options.words_per_call = 2;
  spout_options.emit_limit = kEmitLimit;
  auto topology = workloads::BuildWordCountTopology(
      "ckpt-abort", 1, 1, spout_options, ExactlyOnceTopologyConfig());
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());

  const auto rounds = [&](int n) {
    for (int i = 0; i < n; ++i) {
      cluster.StepAll();
      clock.AdvanceMillis(5);
      cluster.StepAll();
    }
  };
  auto* coordinator = cluster.checkpoint_coordinator();
  ASSERT_NE(coordinator, nullptr);

  // Checkpoint 1 completes cleanly.
  rounds(6);
  const uint64_t ck1 = cluster.TriggerCheckpoint();
  EXPECT_EQ(ck1, 1u);
  int waited = 0;
  while (coordinator->latest_complete() < ck1 && waited < 500) {
    ++waited;
    rounds(1);
    cluster.MonitorTick();
  }
  ASSERT_EQ(coordinator->latest_complete(), ck1);

  // Checkpoint 2 is cut and the bolt container is killed before a single
  // step runs — its barrier can never align.
  rounds(4);
  const uint64_t ck2 = cluster.TriggerCheckpoint();
  EXPECT_EQ(ck2, 2u);
  EXPECT_EQ(coordinator->in_flight(), ck2);
  ASSERT_TRUE(cluster.FailContainer(1).ok());

  int detect_ticks = 0;
  while (cluster.recovery_metrics()->GetCounter("recovery.deaths")->value() ==
             0 &&
         detect_ticks < 30) {
    ++detect_ticks;
    clock.AdvanceMillis(kCollectIntervalMs);
    cluster.StepAll();
    cluster.MonitorTick();
  }
  // Aborted, not wedged: the in-flight checkpoint is gone, its partial
  // tree deleted, and the restore target is still checkpoint 1.
  EXPECT_EQ(coordinator->in_flight(), 0u);
  EXPECT_GE(coordinator->aborted(), 1u);
  EXPECT_EQ(coordinator->latest_complete(), ck1);
  EXPECT_EQ(
      cluster.recovery_metrics()
          ->GetCounter("recovery.checkpoint.restores")
          ->value(),
      1u);
  const auto ck2_tree = cluster.state_manager()->ExistsNode(
      statemgr::paths::Checkpoint("ckpt-abort", ck2));
  ASSERT_TRUE(ck2_tree.ok());
  EXPECT_FALSE(*ck2_tree) << "aborted checkpoint tree not deleted";

  // Drain to quiescence, then prove liveness: a fresh checkpoint
  // completes and carries the exact word counts.
  uint64_t last_acked = ~0ull;
  int stable = 0;
  for (int r = 0; r < 8000 && stable < 50; ++r) {
    rounds(1);
    const uint64_t acked = cluster.SumCounter("instance.acked");
    if (acked == last_acked) {
      ++stable;
    } else {
      stable = 0;
      last_acked = acked;
    }
  }
  const uint64_t ck3 = cluster.TriggerCheckpoint();
  EXPECT_EQ(ck3, 3u);
  waited = 0;
  while (coordinator->latest_complete() < ck3 && waited < 500) {
    ++waited;
    rounds(1);
    cluster.MonitorTick();
  }
  ASSERT_EQ(coordinator->latest_complete(), ck3);
  const auto bolt_snapshot = cluster.state_manager()->GetNodeData(
      statemgr::paths::CheckpointTask("ckpt-abort", ck3, /*task=*/1));
  ASSERT_TRUE(bolt_snapshot.ok());
  EXPECT_EQ(SumBoltCounts(*bolt_snapshot), kEmitLimit);
  ASSERT_TRUE(cluster.Kill().ok());
}

// The in-stream ordering invariant under backpressure: a barrier fanned
// out toward a destination whose channel is parked must queue *behind*
// the parked data — if it overtook, the receiving bolt would snapshot
// before counting pre-barrier tuples and the checkpoint would silently
// lose them. Raw SMGR harness: container 1 is a straggler with a 2-slot
// inbound that is never stepped while container 0 parks toward it.
TEST(CheckpointBarrierEdgeCases, BarrierParksBehindDataUnderBackpressure) {
  Logging::SetLevel(LogLevel::kError);
  Config topology_config;  // Acking off: pure data-plane ordering.
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 1000;
  spout_options.words_per_call = 1;
  auto topology = workloads::BuildWordCountTopology(
      "ckpt-park", /*spouts=*/1, /*bolts=*/1, spout_options, topology_config);
  ASSERT_TRUE(topology.ok());
  packing::RoundRobinPacking packer;
  Config packing_config;
  packing_config.SetInt(config_keys::kNumContainersHint, 2);
  ASSERT_TRUE(packer.Initialize(packing_config, *topology).ok());
  auto plan = packer.Pack();
  ASSERT_TRUE(plan.ok());
  auto physical = *proto::PhysicalPlan::Build(*topology, *plan);
  ASSERT_EQ(*physical->ContainerOfTask(0), 0);  // Spout.
  ASSERT_EQ(*physical->ContainerOfTask(1), 1);  // Bolt (straggler side).

  SimClock clock(0);
  smgr::Transport transport;
  statemgr::InMemoryStateManager state;
  ASSERT_TRUE(state.Initialize(Config()).ok());

  // Container 0: low watermarks so parking starts within a few rounds.
  smgr::StreamManager::Options opts0;
  opts0.container = 0;
  opts0.backpressure_high_water = 4;
  opts0.backpressure_low_water = 2;
  smgr::StreamManager smgr0(opts0, physical, &transport, &clock);
  // Container 1: the straggler — a 2-slot inbound it never drains until
  // the recovery phase.
  smgr::StreamManager::Options opts1;
  opts1.container = 1;
  opts1.inbound_capacity = 2;
  smgr::StreamManager smgr1(opts1, physical, &transport, &clock);
  ASSERT_TRUE(smgr0.Start().ok());
  ASSERT_TRUE(smgr1.Start().ok());

  instance::HeronInstance::Options s0;
  s0.task = 0;
  s0.config = topology_config;
  s0.checkpoint_state = &state;
  instance::HeronInstance spout0(s0, physical, &transport, &clock, &smgr0);
  ASSERT_TRUE(spout0.Start().ok());

  // The bolt side: a raw channel standing in for task 1's instance, so
  // the test observes the exact arrival order on the barriered channel.
  smgr::EnvelopeChannel bolt_rx(4096);
  ASSERT_TRUE(transport.RegisterInstance(1, &bolt_rx).ok());

  // Phase 1: pump until container 0 is parking toward the straggler.
  int pump_rounds = 0;
  while (!smgr0.local_backpressure_active() && pump_rounds < 200) {
    ++pump_rounds;
    spout0.loop()->RunOnce();
    smgr0.loop()->RunOnce();
    clock.AdvanceMillis(10);
    smgr0.loop()->RunOnce();
  }
  ASSERT_TRUE(smgr0.local_backpressure_active());

  // Phase 2: the coordinator's trigger lands at the spout. The spout
  // snapshots, flushes its outbox, and forwards the barrier; smgr0 drains
  // its tuple cache first and then fans the barrier out toward task 1 —
  // where it must park in FIFO order behind everything already queued.
  {
    proto::CheckpointBarrierMsg trigger;
    trigger.ckpt_id = 7;
    trigger.origin_task = -1;
    trigger.kind = proto::CheckpointBarrierMsg::kTrigger;
    serde::Buffer payload = transport.buffer_pool()->Acquire();
    serde::WireEncoder enc(&payload);
    trigger.SerializeTo(&enc);
    proto::Envelope env(proto::MessageType::kCheckpointBarrier,
                        std::move(payload));
    env.dest_task = 0;
    ASSERT_TRUE(
        transport.TrySend(smgr::Transport::InstanceEndpoint(0), &env).ok());
  }
  spout0.loop()->RunOnce();  // Snapshot + flush + barrier toward smgr0.
  smgr0.loop()->RunOnce();   // Cache drain + fan-out (parks the barrier).
  const uint64_t total_emitted =
      spout0.metrics()->GetCounter("instance.emitted")->value();
  EXPECT_GT(total_emitted, 0u);
  // The spout's snapshot is already durable, before alignment finishes
  // downstream — snapshots commit per task, completion is global.
  const auto spout_snapshot = state.GetNodeData(
      statemgr::paths::CheckpointTask("ckpt-park", 7, /*task=*/0));
  ASSERT_TRUE(spout_snapshot.ok());
  EXPECT_FALSE(spout_snapshot->empty());

  // Phase 3: the straggler recovers. Drain everything, recording the
  // exact order the bolt channel sees: every pre-barrier word must land
  // before the barrier — zero overtake, zero drops.
  uint64_t words_before_barrier = 0;
  uint64_t words_after_barrier = 0;
  int barriers_seen = 0;
  proto::CheckpointBarrierMsg barrier;
  for (int i = 0; i < 500; ++i) {
    clock.AdvanceMillis(1);
    smgr1.loop()->RunOnce();
    smgr0.FlushRetries();
    while (auto env = bolt_rx.TryRecv()) {
      if (env->type == proto::MessageType::kCheckpointBarrier) {
        ++barriers_seen;
        EXPECT_EQ(env->dest_task, 1);
        EXPECT_TRUE(barrier.ParseFromBytes(env->payload).ok());
      } else if (env->type == proto::MessageType::kTupleBatchRouted) {
        proto::TupleBatchMsg batch;
        ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
        if (barriers_seen == 0) {
          words_before_barrier += batch.tuples.size();
        } else {
          words_after_barrier += batch.tuples.size();
        }
      }
    }
    if (barriers_seen > 0 && words_before_barrier == total_emitted) break;
  }
  EXPECT_EQ(barriers_seen, 1);
  EXPECT_EQ(barrier.ckpt_id, 7u);
  EXPECT_EQ(barrier.origin_task, 0);
  EXPECT_EQ(barrier.kind, proto::CheckpointBarrierMsg::kBarrier);
  // The ordering invariant: every word the spout emitted before the
  // barrier cut arrived ahead of the barrier; none leaked past it.
  EXPECT_EQ(words_before_barrier, total_emitted);
  EXPECT_EQ(words_after_barrier, 0u);

  spout0.Stop();
  smgr1.Stop();
  smgr0.Stop();
}

// Seeded random kills from the test thread, on the real clock, land while
// periodic checkpoints are continuously in flight. Every death must be
// absorbed by a checkpoint rollback, the coordinator must keep completing
// checkpoints after the storm (stale in-flight ones time out), and the
// data plane must keep acking.
TEST(CheckpointChaosTest, ChaosKillsDuringInFlightCheckpointsAreAbsorbed) {
  Logging::SetLevel(LogLevel::kError);
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 2);
  config.SetInt(config_keys::kSchedulerMonitorIntervalMs, 50);
  config.SetInt(config_keys::kSchedulerMonitorMissLimit, 2);
  config.SetInt(config_keys::kMetricsCollectIntervalMs, 20);
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMessageTimeoutMs, 600000);
  config.SetInt(config_keys::kMaxSpoutPending, 128);
  config.Set(config_keys::kCheckpointMode, "exactly-once");
  // Fast cadence: a checkpoint is nearly always in flight when a kill
  // lands.
  config.SetInt(config_keys::kCheckpointIntervalMs, 40);
  LocalCluster cluster(config);

  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 500;
  spout_options.words_per_call = 2;
  auto topology = workloads::BuildWordCountTopology("ckpt-chaos", 1, 1,
                                                    spout_options, config);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.WaitForCounter("instance.acked", 200, 30000).ok());

  // Ride out the storm: both kills recovered via rollback.
  const auto recovery = [&](const char* metric) {
    return cluster.recovery_metrics()->GetCounter(metric)->value();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const int kills = KillSchedule{}.Run(&cluster, deadline);
  while (std::chrono::steady_clock::now() < deadline &&
         recovery("recovery.checkpoint.restores") < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(kills, 2);
  EXPECT_GE(recovery("recovery.deaths"), 2u);
  EXPECT_EQ(recovery("recovery.checkpoint.restores"), 2u);
  EXPECT_EQ(cluster.num_live_containers(), 2);

  // Post-storm liveness, checkpoint side: completions keep advancing —
  // any checkpoint wedged by a barrier that died mid-storm is timed out
  // and superseded rather than blocking the cadence forever.
  auto* coordinator = cluster.checkpoint_coordinator();
  ASSERT_NE(coordinator, nullptr);
  const uint64_t completed_after_storm = coordinator->completed();
  const auto ckpt_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (coordinator->completed() <= completed_after_storm &&
         std::chrono::steady_clock::now() < ckpt_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(coordinator->completed(), completed_after_storm)
      << "no checkpoint completed after the kill storm";

  // Post-storm liveness, data side: acks keep flowing.
  const uint64_t acked = cluster.SumCounter("instance.acked");
  EXPECT_TRUE(
      cluster.WaitForCounter("instance.acked", acked + 500, 30000).ok());
  ASSERT_TRUE(cluster.Kill().ok());
}

}  // namespace
}  // namespace runtime
}  // namespace heron
