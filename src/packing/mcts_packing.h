#ifndef HERON_PACKING_MCTS_PACKING_H_
#define HERON_PACKING_MCTS_PACKING_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "packing/packing.h"
#include "packing/placement_cost.h"

namespace heron {
namespace packing {

/// \brief Monte-Carlo tree search over instance → container assignments
/// (the paper's §IV-A extensibility claim, exercised: "policies based on
/// Monte-Carlo Tree Search" as a drop-in ResourceManager).
///
/// The search places instances one at a time; a tree node is a placement
/// prefix and an edge is "put the next instance into container c". UCT
/// picks the child to descend into, expansion tries one untried container,
/// and a greedy rollout (colocate with DAG neighbours, tie-break on free
/// CPU, ε-random) completes the assignment, which is scored with
/// EvaluatePlacement — inter-container traffic under the configured
/// per-component rate hints, CPU imbalance, and (for repacks) moved
/// instances. Empty containers are interchangeable, so only the
/// lowest-id empty candidate is ever offered (symmetry reduction).
///
/// Repack() first runs RepackMinimalDisruption for target resolution and
/// capacity/argument validation, then *pins every surviving instance* in
/// its current container and searches only over the placement of the
/// added instances — the disruption guarantee the property tests pin down
/// (an unchanged component never moves).
///
/// Deterministic for a fixed heron.packing.mcts.seed: the rollout RNG is
/// splitmix64 and every tie-break is ordered, so two universes running
/// the same scaling decision produce byte-identical plans.
class MctsPacking final : public IPacking {
 public:
  Status Initialize(const Config& config,
                    std::shared_ptr<const api::Topology> topology) override;
  Result<PackingPlan> Pack() override;
  Result<PackingPlan> Repack(
      const PackingPlan& current,
      const std::map<ComponentId, int>& parallelism_changes) override;
  std::string Name() const override { return "MCTS"; }

  /// Itemized cost of the last plan returned (figure/test introspection).
  const PlacementCost& last_cost() const { return last_cost_; }

 private:
  /// One candidate container during search: identity plus current load
  /// (instance demand only; overhead is added in the fit check).
  struct CState {
    ContainerId id = -1;
    Resource load;
    int instances = 0;
    /// Tasks per component already inside (the rollout's colocation
    /// signal).
    std::map<ComponentId, int> component_tasks;
  };

  /// Runs the search: places `to_place` (in order) into `base` (whose
  /// existing instances are pinned), opening fresh containers past
  /// `first_fresh_id` when nothing fits. `previous` feeds the disruption
  /// term of the objective.
  Result<PackingPlan> Search(const PackingPlan& base,
                             std::vector<InstancePlan> to_place,
                             ContainerId first_fresh_id,
                             const Resource& capacity,
                             const PackingPlan* previous);

  Config config_;
  std::shared_ptr<const api::Topology> topology_;
  std::map<ComponentId, double> rates_;
  /// Components adjacent in the DAG (producers and consumers), the
  /// rollout's colocation heuristic.
  std::map<ComponentId, std::vector<ComponentId>> adjacent_;
  PlacementCostWeights weights_;
  PlacementCost last_cost_;
  int iterations_ = 256;
  uint64_t seed_ = 42;
};

}  // namespace packing
}  // namespace heron

#endif  // HERON_PACKING_MCTS_PACKING_H_
