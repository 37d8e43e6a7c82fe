// Resource Manager (§IV-A) tests: plan invariants across every built-in
// policy (parameterized), policy-specific behaviour, and the repack
// minimal-disruption properties.

#include "packing/packing.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "packing/first_fit_decreasing_packing.h"
#include "packing/mcts_packing.h"
#include "packing/packing_registry.h"
#include "packing/placement_cost.h"
#include "packing/resource_compliant_rr_packing.h"
#include "packing/round_robin_packing.h"
#include "tests/common/fuzz.h"
#include "workloads/word_count.h"

namespace heron {
namespace packing {
namespace {

std::shared_ptr<const api::Topology> WordCount(int spouts, int bolts) {
  auto t = workloads::BuildWordCountTopology("pack-test", spouts, bolts);
  HERON_CHECK_OK(t.status());
  return *t;
}

// ---------------------------------------------------------------------
// Invariants that must hold for every policy and several topology sizes.
// ---------------------------------------------------------------------

struct PolicyCase {
  std::string policy;
  int spouts;
  int bolts;
};

class PackingInvariants : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PackingInvariants, PlanCoversEveryInstanceExactlyOnce) {
  const PolicyCase& param = GetParam();
  auto topology = WordCount(param.spouts, param.bolts);
  auto packing = PackingRegistry::Global()->Create(param.policy);
  ASSERT_TRUE(packing.ok());
  ASSERT_TRUE((*packing)->Initialize(Config(), topology).ok());
  auto plan = (*packing)->Pack();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  EXPECT_TRUE(plan->Validate(/*require_dense_task_ids=*/true).ok());
  EXPECT_EQ(plan->NumInstances(), param.spouts + param.bolts);
  EXPECT_EQ(plan->TasksOfComponent("word").size(),
            static_cast<size_t>(param.spouts));
  EXPECT_EQ(plan->TasksOfComponent("count").size(),
            static_cast<size_t>(param.bolts));

  // Every container's requirement covers its instances plus overhead.
  for (const auto& c : plan->containers()) {
    EXPECT_TRUE(c.required.Fits(c.InstanceTotal() + ContainerOverhead()))
        << "container " << c.id;
  }
}

TEST_P(PackingInvariants, SerializedPlanRoundTrips) {
  const PolicyCase& param = GetParam();
  auto topology = WordCount(param.spouts, param.bolts);
  auto packing = PackingRegistry::Global()->Create(param.policy);
  ASSERT_TRUE(packing.ok());
  ASSERT_TRUE((*packing)->Initialize(Config(), topology).ok());
  auto plan = (*packing)->Pack();
  ASSERT_TRUE(plan.ok());
  PackingPlan parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(plan->SerializeAsBuffer()).ok());
  EXPECT_EQ(parsed, *plan);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSizes, PackingInvariants,
    ::testing::Values(PolicyCase{"ROUND_ROBIN", 2, 2},
                      PolicyCase{"ROUND_ROBIN", 25, 25},
                      PolicyCase{"ROUND_ROBIN", 7, 13},
                      PolicyCase{"FIRST_FIT_DECREASING", 2, 2},
                      PolicyCase{"FIRST_FIT_DECREASING", 25, 25},
                      PolicyCase{"FIRST_FIT_DECREASING", 7, 13},
                      PolicyCase{"RESOURCE_COMPLIANT_RR", 2, 2},
                      PolicyCase{"RESOURCE_COMPLIANT_RR", 25, 25},
                      PolicyCase{"RESOURCE_COMPLIANT_RR", 7, 13},
                      PolicyCase{"MCTS", 2, 2},
                      PolicyCase{"MCTS", 25, 25},
                      PolicyCase{"MCTS", 7, 13}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return info.param.policy + "_" +
             std::to_string(info.param.spouts) + "x" +
             std::to_string(info.param.bolts);
    });

TEST(PackingPlanFuzzTest, DecoderSurvivesMutations) {
  // Plans round-trip through the State Manager, so their decoder reads
  // bytes from disk. A mutated CPU demand that could not re-serialize to
  // itself must be rejected at decode, not flip on the next write.
  fuzz::ExpectDecoderSurvivesMutations<PackingPlan>(0x9A4C, [](Random* rng) {
    std::vector<ContainerPlan> containers(1 + rng->NextBelow(3));
    TaskId task = 0;
    for (size_t c = 0; c < containers.size(); ++c) {
      containers[c].id = static_cast<ContainerId>(c);
      const size_t instances = 1 + rng->NextBelow(4);
      for (size_t k = 0; k < instances; ++k) {
        InstancePlan inst;
        inst.task_id = task++;
        inst.component = k % 2 == 0 ? "word" : "count";
        inst.component_index = static_cast<int>(k);
        const double cpu = static_cast<double>(rng->NextBelow(4000)) / 1000.0;
        const auto ram = static_cast<int64_t>(rng->NextBelow(4096));
        inst.resources = Resource(cpu, ram, 0);
        containers[c].instances.push_back(std::move(inst));
      }
      containers[c].required =
          containers[c].InstanceTotal() + ContainerOverhead();
    }
    return PackingPlan("fuzz", std::move(containers)).SerializeAsBuffer();
  });
}

// ---------------------------------------------------------------------
// Policy-specific behaviour.
// ---------------------------------------------------------------------

TEST(RoundRobinTest, BalancesInstanceCounts) {
  RoundRobinPacking packing;
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 5);
  ASSERT_TRUE(packing.Initialize(config, WordCount(10, 10)).ok());
  auto plan = packing.Pack();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumContainers(), 5);
  for (const auto& c : plan->containers()) {
    EXPECT_EQ(c.instances.size(), 4u);
  }
}

TEST(RoundRobinTest, DefaultsToQuarterOfInstances) {
  RoundRobinPacking packing;
  ASSERT_TRUE(packing.Initialize(Config(), WordCount(8, 8)).ok());
  auto plan = packing.Pack();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumContainers(), 4);  // ceil(16/4).
}

TEST(RoundRobinTest, MoreContainersThanInstancesShrinks) {
  RoundRobinPacking packing;
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 50);
  ASSERT_TRUE(packing.Initialize(config, WordCount(1, 2)).ok());
  auto plan = packing.Pack();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumContainers(), 3);  // No empty containers.
}

TEST(FirstFitDecreasingTest, UsesFewerContainersThanRoundRobin) {
  auto topology = WordCount(20, 20);
  Config config;
  config.SetDouble(config_keys::kContainerCpuHint, 9.0);
  config.SetInt(config_keys::kContainerRamMbHint, 9 * 1024);

  FirstFitDecreasingPacking ffd;
  ASSERT_TRUE(ffd.Initialize(config, topology).ok());
  auto ffd_plan = ffd.Pack();
  ASSERT_TRUE(ffd_plan.ok());

  RoundRobinPacking rr;
  ASSERT_TRUE(rr.Initialize(config, topology).ok());
  auto rr_plan = rr.Pack();
  ASSERT_TRUE(rr_plan.ok());

  EXPECT_LT(ffd_plan->NumContainers(), rr_plan->NumContainers());
  // FFD respects capacity: 8 usable CPU / 1 per instance → 8 per bin.
  for (const auto& c : ffd_plan->containers()) {
    EXPECT_LE(c.instances.size(), 8u);
  }
  EXPECT_EQ(ffd_plan->NumContainers(), 5);  // ceil(40/8): optimal here.
}

TEST(FirstFitDecreasingTest, RejectsOversizedInstance) {
  api::TopologyBuilder b("fat");
  b.SetSpout(
       "s", [] { return nullptr; }, 1)
      .SetResources(Resource(64.0, 1 << 20));
  auto topology = b.Build();
  ASSERT_TRUE(topology.ok());
  FirstFitDecreasingPacking ffd;
  ASSERT_TRUE(ffd.Initialize(Config(), *topology).ok());
  EXPECT_TRUE(ffd.Pack().status().IsResourceExhausted());
}

TEST(ResourceCompliantRRTest, GrowsWhenContainersFill) {
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 2);
  config.SetDouble(config_keys::kContainerCpuHint, 4.0);  // 3 usable.
  config.SetInt(config_keys::kContainerRamMbHint, 64 * 1024);
  ResourceCompliantRRPacking rcrr;
  ASSERT_TRUE(rcrr.Initialize(config, WordCount(6, 6)).ok());
  auto plan = rcrr.Pack();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // 12 instances, 3 per container → needs 4 containers despite hint 2.
  EXPECT_EQ(plan->NumContainers(), 4);
  for (const auto& c : plan->containers()) {
    EXPECT_LE(c.InstanceTotal().cpu, 3.0 + 1e-9);
  }
}

// ---------------------------------------------------------------------
// Repack (§IV-A scaling): minimal disruption properties.
// ---------------------------------------------------------------------

class RepackTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<IPacking> MakePacking(
      std::shared_ptr<const api::Topology> topology) {
    auto packing = PackingRegistry::Global()->Create(GetParam());
    HERON_CHECK_OK(packing.status());
    HERON_CHECK_OK((*packing)->Initialize(Config(), topology));
    return std::move(*packing);
  }
};

TEST_P(RepackTest, ScaleUpKeepsSurvivorsInPlace) {
  auto topology = WordCount(4, 4);
  auto packing = MakePacking(topology);
  auto before = packing->Pack();
  ASSERT_TRUE(before.ok());

  auto after = packing->Repack(*before, {{"count", 7}});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->Validate().ok());
  EXPECT_EQ(after->TasksOfComponent("count").size(), 7u);
  EXPECT_EQ(after->TasksOfComponent("word").size(), 4u);

  // Minimal disruption: every pre-existing task stays in its container.
  for (const auto& c : before->containers()) {
    for (const auto& inst : c.instances) {
      const ContainerPlan* now = after->FindContainerOfTask(inst.task_id);
      ASSERT_NE(now, nullptr) << "task " << inst.task_id << " vanished";
      EXPECT_EQ(now->id, c.id) << "task " << inst.task_id << " moved";
    }
  }
}

TEST_P(RepackTest, ScaleDownRemovesHighestIndices) {
  auto topology = WordCount(4, 6);
  auto packing = MakePacking(topology);
  auto before = packing->Pack();
  ASSERT_TRUE(before.ok());

  auto after = packing->Repack(*before, {{"count", 2}});
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->Validate().ok());
  EXPECT_EQ(after->TasksOfComponent("count").size(), 2u);
  // The survivors are component indices 0 and 1.
  std::set<int> indices;
  for (const auto& c : after->containers()) {
    for (const auto& inst : c.instances) {
      if (inst.component == "count") indices.insert(inst.component_index);
    }
  }
  EXPECT_EQ(indices, (std::set<int>{0, 1}));
}

TEST_P(RepackTest, NewTaskIdsDoNotRecycleOldOnes) {
  auto topology = WordCount(2, 2);
  auto packing = MakePacking(topology);
  auto before = packing->Pack();
  ASSERT_TRUE(before.ok());
  auto shrunk = packing->Repack(*before, {{"count", 1}});
  ASSERT_TRUE(shrunk.ok());
  auto grown = packing->Repack(*shrunk, {{"count", 3}});
  ASSERT_TRUE(grown.ok());
  // Grown instances get ids above the previous maximum (3).
  for (const TaskId t : grown->TasksOfComponent("count")) {
    if (t > 3) SUCCEED();
  }
  EXPECT_TRUE(grown->Validate().ok());
  EXPECT_EQ(grown->TasksOfComponent("count").size(), 3u);
}

TEST_P(RepackTest, RejectsUnknownComponent) {
  auto topology = WordCount(2, 2);
  auto packing = MakePacking(topology);
  auto before = packing->Pack();
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(
      packing->Repack(*before, {{"ghost", 3}}).status().IsNotFound());
  EXPECT_TRUE(packing->Repack(*before, {{"count", 0}})
                  .status()
                  .IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(Policies, RepackTest,
                         ::testing::Values("ROUND_ROBIN",
                                           "FIRST_FIT_DECREASING",
                                           "RESOURCE_COMPLIANT_RR",
                                           "MCTS"));

// ---------------------------------------------------------------------
// MCTS packing: determinism, randomized repack properties, and the
// placement objective it optimizes.
// ---------------------------------------------------------------------

// A heterogeneous four-stage pipeline: unlike WordCount's single all-to-
// all edge, placement quality actually varies between plans, so the
// search has something to optimize.
std::shared_ptr<const api::Topology> Pipeline() {
  api::TopologyBuilder b("pipeline");
  b.SetSpout(
       "ingest", [] { return nullptr; }, 4)
      .OutputFields({"ev"});
  b.SetBolt(
       "parse", [] { return nullptr; }, 6)
      .ShuffleGrouping("ingest")
      .OutputFields({"rec"});
  b.SetBolt(
       "join", [] { return nullptr; }, 4)
      .FieldsGrouping("parse", {"rec"})
      .OutputFields({"out"});
  b.SetBolt(
       "sink", [] { return nullptr; }, 2)
      .GlobalGrouping("join");
  auto t = b.Build();
  HERON_CHECK_OK(t.status());
  return *t;
}

TEST(MctsTest, SameSeedProducesByteIdenticalPlans) {
  auto topology = Pipeline();
  MctsPacking first;
  MctsPacking second;
  ASSERT_TRUE(first.Initialize(Config(), topology).ok());
  ASSERT_TRUE(second.Initialize(Config(), topology).ok());
  auto plan1 = first.Pack();
  auto plan2 = second.Pack();
  ASSERT_TRUE(plan1.ok()) << plan1.status().ToString();
  ASSERT_TRUE(plan2.ok());
  EXPECT_EQ(*plan1, *plan2);
  // The two-universe guarantee is byte-level: serialized plans match.
  EXPECT_EQ(plan1->SerializeAsBuffer(), plan2->SerializeAsBuffer());

  // A different seed is still a valid plan (and deterministic too).
  Config seeded;
  seeded.SetInt(config_keys::kMctsSeed, 7);
  seeded.SetInt(config_keys::kMctsIterations, 64);
  MctsPacking third;
  ASSERT_TRUE(third.Initialize(seeded, topology).ok());
  auto plan3 = third.Pack();
  ASSERT_TRUE(plan3.ok());
  EXPECT_TRUE(plan3->Validate(/*require_dense_task_ids=*/true).ok());
}

TEST(MctsTest, RandomizedRepackKeepsSurvivorsAndRespectsCapacity) {
  // Property test over random scale-ups: whatever the sizes, survivors
  // never move, additions land inside capacity, and repeating the same
  // repack yields the identical plan.
  Random rng(20260809);
  for (int trial = 0; trial < 8; ++trial) {
    const int spouts = 1 + static_cast<int>(rng.NextBelow(4));
    const int bolts = 1 + static_cast<int>(rng.NextBelow(6));
    auto topology = WordCount(spouts, bolts);
    Config config;
    config.SetInt(config_keys::kMctsIterations, 64);
    config.SetInt(config_keys::kMctsSeed,
                  static_cast<int64_t>(rng.NextBelow(1000)));
    MctsPacking packing;
    ASSERT_TRUE(packing.Initialize(config, topology).ok());
    auto before = packing.Pack();
    ASSERT_TRUE(before.ok());

    const int target = bolts + 1 + static_cast<int>(rng.NextBelow(8));
    auto after = packing.Repack(*before, {{"count", target}});
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_TRUE(after->Validate().ok());
    EXPECT_EQ(after->TasksOfComponent("count").size(),
              static_cast<size_t>(target));
    EXPECT_EQ(after->TasksOfComponent("word").size(),
              static_cast<size_t>(spouts));

    // Survivors pinned: nothing that existed before may move.
    for (const auto& c : before->containers()) {
      for (const auto& inst : c.instances) {
        const ContainerPlan* now = after->FindContainerOfTask(inst.task_id);
        ASSERT_NE(now, nullptr);
        EXPECT_EQ(now->id, c.id)
            << "trial " << trial << ": task " << inst.task_id << " moved";
      }
    }
    // Capacity: requirement covers load in every container.
    for (const auto& c : after->containers()) {
      EXPECT_TRUE(c.required.Fits(c.InstanceTotal() + ContainerOverhead()));
    }
    // Determinism: the same repack again is the same plan.
    auto again = packing.Repack(*before, {{"count", target}});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*after, *again);
  }
}

TEST(MctsTest, BeatsRoundRobinOnInterContainerTraffic) {
  auto topology = Pipeline();
  // Rate hints make "parse" the heavy producer, so colocating it with
  // its consumers is where the traffic win lives.
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 4);
  config.SetDouble(std::string(config_keys::kMctsRatePrefix) + "ingest",
                   1000.0);
  config.SetDouble(std::string(config_keys::kMctsRatePrefix) + "parse",
                   800.0);
  config.SetDouble(std::string(config_keys::kMctsRatePrefix) + "join", 200.0);

  RoundRobinPacking rr;
  ASSERT_TRUE(rr.Initialize(config, topology).ok());
  auto rr_plan = rr.Pack();
  ASSERT_TRUE(rr_plan.ok());

  MctsPacking mcts;
  ASSERT_TRUE(mcts.Initialize(config, topology).ok());
  auto mcts_plan = mcts.Pack();
  ASSERT_TRUE(mcts_plan.ok());

  const auto rates = ComponentRatesFromConfig(*topology, config);
  const PlacementCostWeights weights;
  const PlacementCost rr_cost =
      EvaluatePlacement(*topology, *rr_plan, rates, nullptr, weights);
  const PlacementCost mcts_cost =
      EvaluatePlacement(*topology, *mcts_plan, rates, nullptr, weights);
  EXPECT_LT(mcts_cost.inter_container_tps, rr_cost.inter_container_tps);
  EXPECT_LT(mcts_cost.total, rr_cost.total);
  // The packer's own introspection agrees with an external evaluation.
  EXPECT_DOUBLE_EQ(mcts.last_cost().total, mcts_cost.total);
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

TEST(PackingRegistryTest, BuiltInsPresent) {
  const auto names = PackingRegistry::Global()->RegisteredNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "ROUND_ROBIN"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "FIRST_FIT_DECREASING"),
            names.end());
}

TEST(PackingRegistryTest, UnknownPolicyIsNotFound) {
  EXPECT_TRUE(
      PackingRegistry::Global()->Create("NO_SUCH_POLICY").status().IsNotFound());
}

TEST(PackingRegistryTest, ConfigSelectsPolicy) {
  Config config;
  config.Set(config_keys::kPackingAlgorithm, "FIRST_FIT_DECREASING");
  auto packing = PackingRegistry::Global()->CreateFromConfig(config);
  ASSERT_TRUE(packing.ok());
  EXPECT_EQ((*packing)->Name(), "FIRST_FIT_DECREASING");
  // Default.
  auto fallback = PackingRegistry::Global()->CreateFromConfig(Config());
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ((*fallback)->Name(), "ROUND_ROBIN");
}

TEST(PackingRegistryTest, UserPolicyPlugsIn) {
  // §IV-A extensibility: register a custom policy and use it.
  class EverythingInOneContainer final : public IPacking {
   public:
    Status Initialize(const Config&,
                      std::shared_ptr<const api::Topology> t) override {
      topology_ = std::move(t);
      return Status::OK();
    }
    Result<PackingPlan> Pack() override {
      ContainerPlan c;
      c.id = 0;
      for (auto& inst : internal::EnumerateInstances(*topology_)) {
        c.instances.push_back(inst);
      }
      c.required = c.InstanceTotal() + ContainerOverhead();
      return PackingPlan(topology_->name(), {c});
    }
    Result<PackingPlan> Repack(const PackingPlan&,
                               const std::map<ComponentId, int>&) override {
      return Status::NotImplemented("one-shot policy");
    }
    std::string Name() const override { return "ALL_IN_ONE"; }

   private:
    std::shared_ptr<const api::Topology> topology_;
  };

  auto* registry = PackingRegistry::Global();
  // Idempotent across test re-runs within one process.
  registry
      ->Register("ALL_IN_ONE",
                 [] { return std::make_unique<EverythingInOneContainer>(); })
      .ok();
  auto packing = registry->Create("ALL_IN_ONE");
  ASSERT_TRUE(packing.ok());
  ASSERT_TRUE((*packing)->Initialize(Config(), WordCount(2, 3)).ok());
  auto plan = (*packing)->Pack();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumContainers(), 1);
  EXPECT_EQ(plan->NumInstances(), 5);
}

}  // namespace
}  // namespace packing
}  // namespace heron
