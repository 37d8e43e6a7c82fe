// Scheduler (§IV-B) tests: the framework scheduler in stateless (Aurora)
// and stateful (YARN) modes, container sizing, update diffing, and the
// local scheduler.

#include "scheduler/scheduler.h"

#include <gtest/gtest.h>

#include <map>

#include "frameworks/sim_framework.h"
#include "packing/round_robin_packing.h"
#include "scheduler/framework_scheduler.h"
#include "scheduler/local_scheduler.h"
#include "workloads/word_count.h"

namespace heron {
namespace scheduler {
namespace {

class RecordingLauncher;
int launcher_starts(const std::map<ContainerId, int>& starts, ContainerId id) {
  const auto it = starts.find(id);
  return it == starts.end() ? 0 : it->second;
}

/// Records container starts/stops instead of spawning processes.
class RecordingLauncher final : public IContainerLauncher {
 public:
  Status StartContainer(const packing::ContainerPlan& container) override {
    ++starts[container.id];
    live.insert(container.id);
    return Status::OK();
  }
  Status StopContainer(ContainerId id) override {
    ++stops[id];
    live.erase(id);
    return Status::OK();
  }

  std::map<ContainerId, int> starts;
  std::map<ContainerId, int> stops;
  std::set<ContainerId> live;
};

packing::PackingPlan MakePlan(int spouts, int bolts,
                              std::shared_ptr<const api::Topology>* out_topo =
                                  nullptr,
                              packing::RoundRobinPacking* packer = nullptr) {
  auto topology = workloads::BuildWordCountTopology("sched-test", spouts,
                                                    bolts);
  HERON_CHECK_OK(topology.status());
  if (out_topo != nullptr) *out_topo = *topology;
  static packing::RoundRobinPacking local_packer;
  packing::RoundRobinPacking* p = packer != nullptr ? packer : &local_packer;
  *p = packing::RoundRobinPacking();
  HERON_CHECK_OK(p->Initialize(Config(), *topology));
  auto plan = p->Pack();
  HERON_CHECK_OK(plan.status());
  return *plan;
}

class FrameworkSchedulerTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    cluster_.AddNodes(16, Resource(32, 65536, 0));
    framework_ = std::make_unique<frameworks::SimFramework>(
        *frameworks::ParseFrameworkKind(GetParam()), &cluster_);
    scheduler_ = std::make_unique<FrameworkScheduler>(framework_.get(),
                                                      &launcher_);
    ASSERT_TRUE(scheduler_->Initialize(Config()).ok());
  }

  frameworks::SimCluster cluster_;
  std::unique_ptr<frameworks::SimFramework> framework_;
  RecordingLauncher launcher_;
  std::unique_ptr<FrameworkScheduler> scheduler_;
};

TEST_P(FrameworkSchedulerTest, OnScheduleStartsEveryContainer) {
  const packing::PackingPlan plan = MakePlan(4, 4);
  ASSERT_TRUE(scheduler_->OnSchedule(plan).ok());
  EXPECT_EQ(launcher_.live.size(),
            static_cast<size_t>(plan.NumContainers()));
  for (const auto& c : plan.containers()) {
    EXPECT_EQ(launcher_.starts[c.id], 1) << "container " << c.id;
  }
  EXPECT_FALSE(scheduler_->job_id().empty());
  // Double-schedule rejected.
  EXPECT_TRUE(scheduler_->OnSchedule(plan).IsFailedPrecondition());
}

TEST_P(FrameworkSchedulerTest, StatefulnessFollowsFramework) {
  // "The Scheduler can be either stateful or stateless depending on the
  // capabilities of the underlying scheduling framework."
  EXPECT_EQ(scheduler_->IsStateful(), GetParam() == "yarn");
}

TEST_P(FrameworkSchedulerTest, OnKillTearsEverythingDown) {
  const packing::PackingPlan plan = MakePlan(2, 2);
  ASSERT_TRUE(scheduler_->OnSchedule(plan).ok());
  ASSERT_TRUE(scheduler_->OnKill({"sched-test"}).ok());
  EXPECT_TRUE(launcher_.live.empty());
  EXPECT_EQ(cluster_.num_allocations(), 0u);
  EXPECT_TRUE(scheduler_->OnKill({"sched-test"}).IsFailedPrecondition());
}

TEST_P(FrameworkSchedulerTest, OnKillRejectsWrongTopology) {
  ASSERT_TRUE(scheduler_->OnSchedule(MakePlan(2, 2)).ok());
  EXPECT_TRUE(scheduler_->OnKill({"other"}).IsNotFound());
}

TEST_P(FrameworkSchedulerTest, OnRestartSingleContainer) {
  const packing::PackingPlan plan = MakePlan(4, 4);
  ASSERT_TRUE(scheduler_->OnSchedule(plan).ok());
  const ContainerId target = plan.containers()[1].id;
  ASSERT_TRUE(scheduler_->OnRestart({"sched-test", target}).ok());
  EXPECT_EQ(launcher_.starts[target], 2);
  EXPECT_EQ(launcher_.stops[target], 1);
  EXPECT_TRUE(
      scheduler_->OnRestart({"sched-test", 999}).IsNotFound());
}

TEST_P(FrameworkSchedulerTest, OnUpdateAddsAndRemovesContainers) {
  std::shared_ptr<const api::Topology> topology;
  packing::RoundRobinPacking packer;
  const packing::PackingPlan before = MakePlan(4, 4, &topology, &packer);
  ASSERT_TRUE(scheduler_->OnSchedule(before).ok());

  // Scale the bolts up so the repack opens new containers.
  auto after = packer.Repack(before, {{"count", 12}});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_GT(after->NumContainers(), before.NumContainers());

  ASSERT_TRUE(scheduler_->OnUpdate({"sched-test", *after}).ok());
  EXPECT_EQ(launcher_.live.size(),
            static_cast<size_t>(after->NumContainers()));
  EXPECT_EQ(scheduler_->current_plan().NumInstances(),
            after->NumInstances());

  // And back down: removed containers stop.
  auto shrunk = packer.Repack(*after, {{"count", 1}});
  ASSERT_TRUE(shrunk.ok());
  ASSERT_TRUE(scheduler_->OnUpdate({"sched-test", *shrunk}).ok());
  EXPECT_EQ(launcher_.live.size(),
            static_cast<size_t>(shrunk->NumContainers()));
}

INSTANTIATE_TEST_SUITE_P(Frameworks, FrameworkSchedulerTest,
                         ::testing::Values("yarn", "aurora"));

TEST(FrameworkSchedulerSizingTest, HomogeneousFrameworkGetsUniformMax) {
  // "Aurora can only allocate homogeneous containers": every container
  // must be sized to the plan's max requirement, and admission succeeds.
  frameworks::SimCluster cluster;
  cluster.AddNodes(8, Resource(32, 65536, 0));
  frameworks::SimFramework aurora(frameworks::FrameworkKind::kAurora,
                                 &cluster);
  RecordingLauncher launcher;
  FrameworkScheduler scheduler(&aurora, &launcher);
  ASSERT_TRUE(scheduler.Initialize(Config()).ok());

  // Uneven plan: RR over 3 containers with 7 instances gives 3/2/2.
  auto topology = workloads::BuildWordCountTopology("uneven", 3, 4);
  ASSERT_TRUE(topology.ok());
  packing::RoundRobinPacking packer;
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 3);
  ASSERT_TRUE(packer.Initialize(config, *topology).ok());
  auto plan = packer.Pack();
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(scheduler.OnSchedule(*plan).ok());

  const Resource uniform = plan->MaxContainerResource();
  EXPECT_EQ(cluster.TotalUsed(),
            Resource(uniform.cpu * 3, uniform.ram_mb * 3,
                     uniform.disk_mb * 3));
}

TEST(FrameworkSchedulerFailoverTest, StatefulSchedulerRecoversContainers) {
  // §IV-B, YARN mode: "When a container failure is detected, the
  // Scheduler invokes the appropriate commands to restart the container."
  frameworks::SimCluster cluster;
  cluster.AddNodes(8, Resource(32, 65536, 0));
  frameworks::SimFramework yarn(frameworks::FrameworkKind::kYarn, &cluster);
  RecordingLauncher launcher;
  FrameworkScheduler scheduler(&yarn, &launcher);
  ASSERT_TRUE(scheduler.Initialize(Config()).ok());
  const packing::PackingPlan plan = MakePlan(4, 4);
  ASSERT_TRUE(scheduler.OnSchedule(plan).ok());

  ASSERT_TRUE(yarn.InjectContainerFailure(scheduler.job_id(), 0).ok());
  // The scheduler reacted synchronously (event callback): slot restarted.
  auto status = yarn.JobStatus(scheduler.job_id());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ((*status)[0].state, frameworks::ContainerState::kRunning);
  EXPECT_EQ(scheduler.failovers_handled(), 1);
  const ContainerId c0 = plan.containers()[0].id;
  EXPECT_EQ(launcher_starts(launcher.starts, c0), 2);
}

TEST(LocalSchedulerTest, FullLifecycle) {
  RecordingLauncher launcher;
  LocalScheduler scheduler(&launcher);
  ASSERT_TRUE(scheduler.Initialize(Config()).ok());
  const packing::PackingPlan plan = MakePlan(2, 2);
  ASSERT_TRUE(scheduler.OnSchedule(plan).ok());
  EXPECT_EQ(launcher.live.size(), static_cast<size_t>(plan.NumContainers()));
  EXPECT_FALSE(scheduler.IsStateful());

  ASSERT_TRUE(
      scheduler.OnRestart({"sched-test", plan.containers()[0].id}).ok());
  EXPECT_EQ(launcher.starts[plan.containers()[0].id], 2);

  ASSERT_TRUE(scheduler.OnKill({"sched-test"}).ok());
  EXPECT_TRUE(launcher.live.empty());
}

TEST(LocalSchedulerTest, ScheduleRollsBackOnLaunchFailure) {
  class FailingLauncher final : public IContainerLauncher {
   public:
    Status StartContainer(const packing::ContainerPlan& c) override {
      if (c.id >= 1) return Status::Internal("boom");
      started.push_back(c.id);
      return Status::OK();
    }
    Status StopContainer(ContainerId id) override {
      stopped.push_back(id);
      return Status::OK();
    }
    std::vector<ContainerId> started;
    std::vector<ContainerId> stopped;
  };
  FailingLauncher launcher;
  LocalScheduler scheduler(&launcher);
  ASSERT_TRUE(scheduler.Initialize(Config()).ok());
  EXPECT_FALSE(scheduler.OnSchedule(MakePlan(4, 4)).ok());
  // The container that did start was rolled back.
  EXPECT_EQ(launcher.started, launcher.stopped);
}

}  // namespace
}  // namespace scheduler
}  // namespace heron
