// The paper's headline feature tour: the same topology deployed with
// *different module implementations* plugged in (§II, §IV) — no topology
// changes, no engine changes.
//
//  1. Resource Manager: ROUND_ROBIN vs FIRST_FIT_DECREASING packing.
//  2. Scheduler: stateless on an Aurora-like framework vs stateful on a
//     YARN-like framework, surviving an injected container failure each.
//  3. Live scaling: TMaster-coordinated repack + scheduler onUpdate on a
//     running local cluster.
//
//   $ ./build/examples/pluggable_modules

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/logging.h"
#include "frameworks/sim_framework.h"
#include "packing/packing_registry.h"
#include "packing/round_robin_packing.h"
#include "runtime/local_cluster.h"
#include "scheduler/framework_scheduler.h"
#include "workloads/word_count.h"

using namespace heron;

namespace {

/// Launcher stub for the framework demos (the real process launch is the
/// LocalCluster's job; here we only show scheduling behaviour).
class NoopLauncher final : public scheduler::IContainerLauncher {
 public:
  Status StartContainer(const packing::ContainerPlan&) override {
    return Status::OK();
  }
  Status StopContainer(ContainerId) override { return Status::OK(); }
};

void DemoPackingPolicies() {
  std::printf("== pluggable Resource Manager (§IV-A) ==\n");
  auto topology = workloads::BuildWordCountTopology("demo", 20, 20);
  HERON_CHECK_OK(topology.status());
  for (const char* policy : {"ROUND_ROBIN", "FIRST_FIT_DECREASING"}) {
    auto packing = packing::PackingRegistry::Global()->Create(policy);
    HERON_CHECK_OK(packing.status());
    HERON_CHECK_OK((*packing)->Initialize(Config(), *topology));
    auto plan = (*packing)->Pack();
    HERON_CHECK_OK(plan.status());
    std::printf("  %-22s → %2d containers (max ask %s)\n", policy,
                plan->NumContainers(),
                plan->MaxContainerResource().ToString().c_str());
  }
}

void DemoSchedulers() {
  std::printf("== pluggable Scheduler over two frameworks (§IV-B) ==\n");
  auto topology = workloads::BuildWordCountTopology("demo", 4, 4);
  HERON_CHECK_OK(topology.status());
  packing::RoundRobinPacking packer;
  HERON_CHECK_OK(packer.Initialize(Config(), *topology));
  auto plan = packer.Pack();
  HERON_CHECK_OK(plan.status());

  frameworks::SimCluster cluster;
  cluster.AddNodes(8, Resource(32, 65536, 0));
  NoopLauncher launcher;

  frameworks::SimFramework aurora(frameworks::FrameworkKind::kAurora,
                                 &cluster);
  scheduler::FrameworkScheduler stateless(&aurora, &launcher);
  HERON_CHECK_OK(stateless.Initialize(Config()));
  HERON_CHECK_OK(stateless.OnSchedule(*plan));
  HERON_CHECK_OK(aurora.InjectContainerFailure(stateless.job_id(), 0));
  std::printf("  aurora (stateless): container failed → framework "
              "auto-restarted it; scheduler handled %d failovers\n",
              stateless.failovers_handled());
  HERON_CHECK_OK(stateless.OnKill({"demo"}));

  frameworks::SimFramework yarn(frameworks::FrameworkKind::kYarn, &cluster);
  scheduler::FrameworkScheduler stateful(&yarn, &launcher);
  HERON_CHECK_OK(stateful.Initialize(Config()));
  HERON_CHECK_OK(stateful.OnSchedule(*plan));
  HERON_CHECK_OK(yarn.InjectContainerFailure(stateful.job_id(), 0));
  std::printf("  yarn (stateful):    container failed → scheduler "
              "recovered it itself; failovers handled: %d\n",
              stateful.failovers_handled());
  HERON_CHECK_OK(stateful.OnKill({"demo"}));
}

void DemoLiveScaling() {
  std::printf("== live topology scaling (§IV-A repack + onUpdate) ==\n");
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 1000;
  spout_options.words_per_call = 4;
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 2);
  auto topology =
      workloads::BuildWordCountTopology("scaling", 2, 2, spout_options);
  HERON_CHECK_OK(topology.status());

  runtime::LocalCluster cluster(config);
  HERON_CHECK_OK(cluster.Submit(*topology));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::printf("  before: %d bolt instances, %d containers\n",
              static_cast<int>(
                  cluster.current_packing_plan().TasksOfComponent("count")
                      .size()),
              cluster.current_packing_plan().NumContainers());

  HERON_CHECK_OK(cluster.Scale("count", 6));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::printf("  after scale to 6: %d bolt instances, %d containers, "
              "still flowing (%llu executed)\n",
              static_cast<int>(
                  cluster.current_packing_plan().TasksOfComponent("count")
                      .size()),
              cluster.current_packing_plan().NumContainers(),
              static_cast<unsigned long long>(
                  cluster.SumCounter("instance.executed")));
  HERON_CHECK_OK(cluster.Kill());
}

}  // namespace

int main() {
  Logging::SetLevel(LogLevel::kWarning);
  DemoPackingPolicies();
  DemoSchedulers();
  DemoLiveScaling();
  return 0;
}
