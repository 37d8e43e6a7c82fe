// Scheduling-framework substrate tests: SimCluster admission accounting
// and the §IV-B capability contract of every SimFramework kind.

#include "frameworks/framework.h"

#include <gtest/gtest.h>

#include "frameworks/sim_framework.h"

namespace heron {
namespace frameworks {
namespace {

TEST(SimClusterTest, FirstFitAllocationAndRelease) {
  SimCluster cluster;
  cluster.AddNodes(2, Resource(8, 8192, 0));
  auto a = cluster.Allocate(Resource(6, 4096, 0));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*cluster.NodeOf(*a), 0);
  auto b = cluster.Allocate(Resource(6, 4096, 0));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*cluster.NodeOf(*b), 1);  // Did not fit next to the first.
  EXPECT_EQ(cluster.num_allocations(), 2u);

  // Full: a third large ask fails.
  EXPECT_TRUE(
      cluster.Allocate(Resource(6, 4096, 0)).status().IsResourceExhausted());

  ASSERT_TRUE(cluster.Release(*a).ok());
  EXPECT_TRUE(cluster.Allocate(Resource(6, 4096, 0)).ok());
  EXPECT_TRUE(cluster.Release(12345).IsNotFound());
}

TEST(SimClusterTest, AccountingBalances) {
  SimCluster cluster;
  cluster.AddNode(Resource(4, 4096, 0));
  auto a = cluster.Allocate(Resource(1, 1024, 0));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(cluster.TotalUsed(), Resource(1, 1024, 0));
  ASSERT_TRUE(cluster.Release(*a).ok());
  EXPECT_TRUE(cluster.TotalUsed().IsZero());
  EXPECT_EQ(*cluster.FreeOn(0), Resource(4, 4096, 0));
}

class CountingCommands {
 public:
  JobSpec Spec(const std::string& name, std::vector<Resource> demands) {
    JobSpec spec;
    spec.name = name;
    spec.containers = std::move(demands);
    spec.start = [this](int i) { starts.push_back(i); };
    spec.stop = [this](int i) { stops.push_back(i); };
    return spec;
  }
  std::vector<int> starts;
  std::vector<int> stops;
};

/// One row per framework kind: the behaviour the §IV-B contract expects.
struct FrameworkRow {
  FrameworkKind kind;
  const char* name;
  bool heterogeneous;  ///< Admits mixed container sizes.
  bool auto_restart;   ///< Brings a failed container back by itself.
  bool grows;          ///< AddContainers is allowed after submission.
};

void PrintTo(const FrameworkRow& row, std::ostream* os) { *os << row.name; }

constexpr FrameworkRow kFrameworkRows[] = {
    {FrameworkKind::kYarn, "yarn", true, false, true},
    {FrameworkKind::kAurora, "aurora", false, true, true},
    {FrameworkKind::kMarathon, "marathon", false, true, true},
    {FrameworkKind::kSlurm, "slurm", true, false, false},
};

class FrameworkContractTest : public ::testing::TestWithParam<FrameworkRow> {
 protected:
  void SetUp() override {
    cluster_.AddNodes(8, Resource(16, 32768, 0));
    framework_ = std::make_unique<SimFramework>(GetParam().kind, &cluster_);
  }

  SimCluster cluster_;
  std::unique_ptr<SimFramework> framework_;
  CountingCommands commands_;
};

TEST_P(FrameworkContractTest, NameUrlAndCapabilityBits) {
  const FrameworkRow& row = GetParam();
  EXPECT_EQ(framework_->Name(), row.name);
  EXPECT_EQ(framework_->Url(), std::string("sim://") + row.name +
                                   ".cluster.local");
  EXPECT_EQ(framework_->SupportsHeterogeneousContainers(), row.heterogeneous);
  EXPECT_EQ(framework_->AutoRestartsFailedContainers(), row.auto_restart);
  auto parsed = ParseFrameworkKind(row.name);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, row.kind);
}

TEST_P(FrameworkContractTest, SubmitStartsEveryContainer) {
  auto job = framework_->SubmitJob(
      commands_.Spec("t", {Resource(2, 2048, 0), Resource(2, 2048, 0)}));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(commands_.starts, (std::vector<int>{0, 1}));
  auto status = framework_->JobStatus(*job);
  ASSERT_TRUE(status.ok());
  for (const auto& c : *status) {
    EXPECT_EQ(c.state, ContainerState::kRunning);
  }
  EXPECT_EQ(cluster_.num_allocations(), 2u);
}

TEST_P(FrameworkContractTest, HeterogeneousSubmitFollowsCapability) {
  // "YARN can allocate heterogeneous containers whereas Aurora can only
  // allocate homogeneous containers" (§IV-B).
  const auto job = framework_->SubmitJob(
      commands_.Spec("t", {Resource(1, 1024, 0), Resource(8, 8192, 0)}));
  if (GetParam().heterogeneous) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    return;
  }
  EXPECT_TRUE(job.status().IsInvalidArgument());
  EXPECT_EQ(cluster_.num_allocations(), 0u);
  EXPECT_TRUE(commands_.starts.empty());
}

TEST_P(FrameworkContractTest, KillStopsAndReleasesEverything) {
  auto job = framework_->SubmitJob(
      commands_.Spec("t", {Resource(2, 2048, 0), Resource(2, 2048, 0)}));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(framework_->KillJob(*job).ok());
  EXPECT_EQ(commands_.stops.size(), 2u);
  EXPECT_EQ(cluster_.num_allocations(), 0u);
  EXPECT_TRUE(framework_->JobStatus(*job).status().IsNotFound());
  EXPECT_TRUE(framework_->KillJob(*job).IsNotFound());
}

TEST_P(FrameworkContractTest, AdmissionFailureLeavesNothingBehind) {
  // Ask for more than the cluster holds; everything must roll back.
  std::vector<Resource> demands(40, Resource(8, 8192, 0));
  EXPECT_TRUE(framework_->SubmitJob(commands_.Spec("big", demands))
                  .status()
                  .IsResourceExhausted());
  EXPECT_EQ(cluster_.num_allocations(), 0u);
  EXPECT_TRUE(commands_.starts.empty());
}

TEST_P(FrameworkContractTest, RestartCyclesTheContainer) {
  auto job = framework_->SubmitJob(
      commands_.Spec("t", {Resource(2, 2048, 0), Resource(2, 2048, 0)}));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(framework_->RestartContainer(*job, 1).ok());
  EXPECT_EQ(commands_.stops, (std::vector<int>{1}));
  EXPECT_EQ(commands_.starts, (std::vector<int>{0, 1, 1}));
  auto status = framework_->JobStatus(*job);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ((*status)[1].restarts, 1);
}

TEST_P(FrameworkContractTest, InjectedFailureFollowsRestartCapability) {
  std::vector<FrameworkEvent> events;
  framework_->SetEventCallback(
      [&events](const FrameworkEvent& e) { events.push_back(e); });
  auto job = framework_->SubmitJob(
      commands_.Spec("t", {Resource(2, 2048, 0), Resource(2, 2048, 0)}));
  ASSERT_TRUE(job.ok());

  ASSERT_TRUE(framework_->InjectContainerFailure(*job, 1).ok());
  // The client always hears about the failure.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().container.state, ContainerState::kFailed);
  auto status = framework_->JobStatus(*job);
  ASSERT_TRUE(status.ok());
  if (GetParam().auto_restart) {
    // "Aurora invokes the appropriate command to restart the container."
    EXPECT_EQ((*status)[1].state, ContainerState::kRunning);
    EXPECT_EQ((*status)[1].restarts, 1);
    EXPECT_EQ(events.back().container.state, ContainerState::kRunning);
    EXPECT_EQ(commands_.starts.size(), 3u);  // 2 initial + 1 restart.
    EXPECT_EQ(cluster_.num_allocations(), 2u);
    return;
  }
  // The failure stays down until the stateful client acts.
  EXPECT_EQ((*status)[1].state, ContainerState::kFailed);
  EXPECT_EQ(events.size(), 1u);
  EXPECT_EQ(commands_.starts.size(), 2u);
  EXPECT_EQ(cluster_.num_allocations(), 1u);
  ASSERT_TRUE(framework_->RestartContainer(*job, 1).ok());
  EXPECT_EQ((*framework_->JobStatus(*job))[1].state, ContainerState::kRunning);
}

TEST_P(FrameworkContractTest, RemoveContainerShrinks) {
  auto job = framework_->SubmitJob(
      commands_.Spec("t", {Resource(2, 2048, 0), Resource(2, 2048, 0)}));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(framework_->RemoveContainer(*job, 0).ok());
  EXPECT_EQ(framework_->JobStatus(*job)->size(), 1u);
  EXPECT_EQ(cluster_.num_allocations(), 1u);
}

TEST_P(FrameworkContractTest, AddContainersRegistersBeforeStart) {
  auto job = framework_->SubmitJob(
      commands_.Spec("t", {Resource(2, 2048, 0)}));
  ASSERT_TRUE(job.ok());
  bool registered_before_start = false;
  size_t starts_at_registration = 0;
  auto added = framework_->AddContainers(
      *job, {Resource(2, 2048, 0)},
      [&](const std::vector<int>& indices) {
        registered_before_start = true;
        starts_at_registration = commands_.starts.size();
        EXPECT_EQ(indices, (std::vector<int>{1}));
      });
  if (!GetParam().grows) {
    // Slurm allocations are fixed at submission: nothing registers,
    // allocates or starts.
    EXPECT_TRUE(added.status().IsFailedPrecondition());
    EXPECT_FALSE(registered_before_start);
    EXPECT_EQ(commands_.starts, (std::vector<int>{0}));
    EXPECT_EQ(cluster_.num_allocations(), 1u);
    return;
  }
  ASSERT_TRUE(added.ok());
  EXPECT_TRUE(registered_before_start);
  EXPECT_EQ(starts_at_registration, 1u);  // Only the original start.
  EXPECT_EQ(commands_.starts, (std::vector<int>{0, 1}));
}

TEST_P(FrameworkContractTest, GrowthKeepsInstanceSizeWhenHomogeneous) {
  auto job = framework_->SubmitJob(
      commands_.Spec("t", {Resource(2, 2048, 0), Resource(2, 2048, 0)}));
  ASSERT_TRUE(job.ok());
  const Status bigger =
      framework_->AddContainers(*job, {Resource(4, 4096, 0)}).status();
  if (!GetParam().grows) {
    EXPECT_TRUE(bigger.IsFailedPrecondition());
  } else if (GetParam().heterogeneous) {
    EXPECT_TRUE(bigger.ok()) << bigger.ToString();
  } else {
    EXPECT_TRUE(bigger.IsInvalidArgument());
  }
  // Growing by the job's own container size is refused only by Slurm.
  EXPECT_EQ(framework_->AddContainers(*job, {Resource(2, 2048, 0)}).ok(),
            GetParam().grows);
}

INSTANTIATE_TEST_SUITE_P(
    Frameworks, FrameworkContractTest, ::testing::ValuesIn(kFrameworkRows),
    [](const ::testing::TestParamInfo<FrameworkRow>& info) {
      return std::string(info.param.name);
    });

TEST(ParseFrameworkKindTest, RejectsUnknownKinds) {
  // "local" is a scheduler kind, not a framework: LocalCluster handles it
  // before parsing.
  for (const char* name : {"mesos", "local", "", "YARN"}) {
    EXPECT_TRUE(ParseFrameworkKind(name).status().IsInvalidArgument())
        << name;
  }
}

}  // namespace
}  // namespace frameworks
}  // namespace heron
