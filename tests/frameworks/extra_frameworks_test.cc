// The §IV-B roadmap frameworks (Slurm-like, Marathon-like): "there is no
// need to create separate specialized versions of Heron for each new
// scheduling framework" — the same FrameworkScheduler must drive both
// without modification.

#include <gtest/gtest.h>

#include "frameworks/sim_framework.h"
#include "packing/round_robin_packing.h"
#include "scheduler/framework_scheduler.h"
#include "workloads/word_count.h"

namespace heron {
namespace frameworks {
namespace {

class NoopLauncher final : public scheduler::IContainerLauncher {
 public:
  Status StartContainer(const packing::ContainerPlan&) override {
    return Status::OK();
  }
  Status StopContainer(ContainerId) override { return Status::OK(); }
};

packing::PackingPlan Plan(int spouts, int bolts) {
  auto topology = workloads::BuildWordCountTopology("fw", spouts, bolts);
  HERON_CHECK_OK(topology.status());
  packing::RoundRobinPacking packer;
  HERON_CHECK_OK(packer.Initialize(Config(), *topology));
  auto plan = packer.Pack();
  HERON_CHECK_OK(plan.status());
  return *plan;
}

TEST(SlurmLikeTest, StatefulSchedulerRecoversFailedStep) {
  SimCluster cluster;
  cluster.AddNodes(8, Resource(32, 65536, 0));
  SimFramework slurm(FrameworkKind::kSlurm, &cluster);
  EXPECT_TRUE(slurm.SupportsHeterogeneousContainers());
  EXPECT_FALSE(slurm.AutoRestartsFailedContainers());

  NoopLauncher launcher;
  scheduler::FrameworkScheduler sched(&slurm, &launcher);
  ASSERT_TRUE(sched.Initialize(Config()).ok());
  ASSERT_TRUE(sched.OnSchedule(Plan(4, 4)).ok());
  EXPECT_TRUE(sched.IsStateful());

  ASSERT_TRUE(slurm.InjectContainerFailure(sched.job_id(), 0).ok());
  EXPECT_EQ(sched.failovers_handled(), 1);
  EXPECT_EQ((*slurm.JobStatus(sched.job_id()))[0].state,
            ContainerState::kRunning);
}

TEST(SlurmLikeTest, AllocationsAreFixedAtSubmission) {
  SimCluster cluster;
  cluster.AddNodes(8, Resource(32, 65536, 0));
  SimFramework slurm(FrameworkKind::kSlurm, &cluster);
  NoopLauncher launcher;
  scheduler::FrameworkScheduler sched(&slurm, &launcher);
  ASSERT_TRUE(sched.Initialize(Config()).ok());
  const packing::PackingPlan before = Plan(4, 4);
  ASSERT_TRUE(sched.OnSchedule(before).ok());

  // A repack that needs new containers must be refused end to end.
  auto topology = workloads::BuildWordCountTopology("fw", 4, 4);
  ASSERT_TRUE(topology.ok());
  packing::RoundRobinPacking packer;
  ASSERT_TRUE(packer.Initialize(Config(), *topology).ok());
  auto grown = packer.Repack(before, {{"count", 16}});
  ASSERT_TRUE(grown.ok());
  ASSERT_GT(grown->NumContainers(), before.NumContainers());
  EXPECT_TRUE(sched.OnUpdate({"fw", *grown}).IsFailedPrecondition());
}

TEST(MarathonLikeTest, StatelessSchedulerAndSelfHealing) {
  SimCluster cluster;
  cluster.AddNodes(8, Resource(32, 65536, 0));
  SimFramework marathon(FrameworkKind::kMarathon, &cluster);
  EXPECT_FALSE(marathon.SupportsHeterogeneousContainers());
  EXPECT_TRUE(marathon.AutoRestartsFailedContainers());

  NoopLauncher launcher;
  scheduler::FrameworkScheduler sched(&marathon, &launcher);
  ASSERT_TRUE(sched.Initialize(Config()).ok());
  ASSERT_TRUE(sched.OnSchedule(Plan(4, 4)).ok());
  EXPECT_FALSE(sched.IsStateful());

  // Marathon heals without the scheduler noticing.
  ASSERT_TRUE(marathon.InjectContainerFailure(sched.job_id(), 1).ok());
  EXPECT_EQ(sched.failovers_handled(), 0);
  EXPECT_EQ((*marathon.JobStatus(sched.job_id()))[1].state,
            ContainerState::kRunning);
  EXPECT_EQ((*marathon.JobStatus(sched.job_id()))[1].restarts, 1);
}

TEST(MarathonLikeTest, ScaleOutKeepsInstanceSize) {
  SimCluster cluster;
  cluster.AddNodes(8, Resource(32, 65536, 0));
  SimFramework marathon(FrameworkKind::kMarathon, &cluster);
  NoopLauncher launcher;
  scheduler::FrameworkScheduler sched(&marathon, &launcher);
  ASSERT_TRUE(sched.Initialize(Config()).ok());
  const packing::PackingPlan before = Plan(4, 4);
  ASSERT_TRUE(sched.OnSchedule(before).ok());

  // On an identical-instance framework the repack must not open
  // containers bigger than the deployed app size, so the operator caps
  // the packer's container capacity at that size.
  const Resource deployed = before.MaxContainerResource();
  Config repack_config;
  repack_config.SetDouble(config_keys::kContainerCpuHint, deployed.cpu);
  repack_config.SetInt(config_keys::kContainerRamMbHint, deployed.ram_mb);
  auto topology = workloads::BuildWordCountTopology("fw", 4, 4);
  ASSERT_TRUE(topology.ok());
  packing::RoundRobinPacking packer;
  ASSERT_TRUE(packer.Initialize(repack_config, *topology).ok());
  auto grown = packer.Repack(before, {{"count", 16}});
  ASSERT_TRUE(grown.ok());
  ASSERT_TRUE(sched.OnUpdate({"fw", *grown}).ok())
      << sched.OnUpdate({"fw", *grown}).ToString();
  // All deployed containers share the app's (uniform) instance size.
  auto status = marathon.JobStatus(sched.job_id());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->size(),
            static_cast<size_t>(grown->NumContainers()));
}

}  // namespace
}  // namespace frameworks
}  // namespace heron
