#ifndef HERON_TESTS_COMMON_KILL_SCHEDULE_H_
#define HERON_TESTS_COMMON_KILL_SCHEDULE_H_

// A seeded schedule of container kills for threaded LocalCluster tests.
// The cluster never injects faults itself: a test rolls the dice and kills
// through the public FailContainer, and the cluster's monitor has to
// detect and recover every death while the schedule keeps rolling.

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/random.h"
#include "runtime/local_cluster.h"

namespace heron {

/// \brief Every `period`, a die that hits with `probability`; on a hit,
/// one live container drawn uniformly from the same generator is
/// hard-killed. The defaults are the schedule the kill tests share.
struct KillSchedule {
  double probability = 0.5;
  std::chrono::milliseconds period{50};
  int max_kills = 2;
  uint64_t seed = 7;

  /// Rolls on the calling thread until `max_kills` kills succeeded or
  /// `deadline` passed; returns the number of kills.
  int Run(runtime::LocalCluster* cluster,
          std::chrono::steady_clock::time_point deadline) const {
    Random rng(seed);
    int kills = 0;
    while (kills < max_kills && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(period);
      if (!rng.NextBool(probability)) continue;
      const packing::PackingPlan plan = cluster->current_packing_plan();
      std::vector<ContainerId> live;
      for (const auto& c : plan.containers()) {
        if (cluster->GetContainer(c.id) != nullptr) live.push_back(c.id);
      }
      if (live.empty()) continue;
      const ContainerId target = live[rng.NextBelow(live.size())];
      if (cluster->FailContainer(target).ok()) ++kills;
    }
    return kills;
  }
};

}  // namespace heron

#endif  // HERON_TESTS_COMMON_KILL_SCHEDULE_H_
