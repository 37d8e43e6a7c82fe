#include "packing/mcts_packing.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"

namespace heron {
namespace packing {

namespace {

/// UCT exploration constant (≈√2, the textbook choice).
constexpr double kExploration = 1.4;

/// One node of the search tree: a placement prefix. Children are keyed by
/// the container id chosen for the next instance, which is stable across
/// iterations because the path to a node fully determines which fresh
/// containers have been opened below it.
struct Node {
  int visits = 0;
  double value_sum = 0;
  bool expanded = false;                  ///< Legal actions materialized.
  std::vector<ContainerId> untried;       ///< Not yet expanded children.
  std::map<ContainerId, std::unique_ptr<Node>> children;
};

bool FitsContainer(const Resource& capacity, const Resource& load,
                   const Resource& demand) {
  return (capacity - ContainerOverhead() - load).Fits(demand);
}

}  // namespace

Status MctsPacking::Initialize(const Config& config,
                               std::shared_ptr<const api::Topology> topology) {
  if (topology == nullptr) {
    return Status::InvalidArgument("MctsPacking: null topology");
  }
  config_ = config.MergedWith(topology->config());
  topology_ = std::move(topology);
  rates_ = ComponentRatesFromConfig(*topology_, config_);
  adjacent_.clear();
  for (const api::ComponentDef& def : topology_->components()) {
    for (const api::InputSpec& input : def.inputs) {
      adjacent_[def.id].push_back(input.source);
      adjacent_[input.source].push_back(def.id);
    }
  }
  iterations_ = static_cast<int>(
      config_.GetIntOr(config_keys::kMctsIterations, 256));
  if (iterations_ < 1) {
    return Status::InvalidArgument("MCTS iteration budget must be >= 1");
  }
  seed_ = static_cast<uint64_t>(config_.GetIntOr(config_keys::kMctsSeed, 42));
  return Status::OK();
}

Result<PackingPlan> MctsPacking::Pack() {
  if (topology_ == nullptr) {
    return Status::FailedPrecondition("MctsPacking not initialized");
  }
  std::vector<InstancePlan> instances =
      internal::EnumerateInstances(*topology_);
  if (instances.empty()) {
    return Status::InvalidArgument("topology has no instances to pack");
  }
  const int64_t default_containers =
      (static_cast<int64_t>(instances.size()) + 3) / 4;
  const int64_t hint =
      config_.GetIntOr(config_keys::kNumContainersHint, default_containers);
  if (hint < 1) {
    return Status::InvalidArgument(
        StrFormat("number of containers must be >= 1, got %lld",
                  static_cast<long long>(hint)));
  }
  const Resource capacity = internal::ContainerCapacityFromConfig(config_);
  // The hint containers exist as open-but-empty candidates; the search
  // may open more past the hint only when capacity forces it.
  PackingPlan base;
  base.set_topology_name(topology_->name());
  for (ContainerId c = 0; c < static_cast<ContainerId>(hint); ++c) {
    ContainerPlan open;
    open.id = c;
    base.mutable_containers()->push_back(std::move(open));
  }
  HERON_ASSIGN_OR_RETURN(
      PackingPlan plan,
      Search(base, std::move(instances), static_cast<ContainerId>(hint),
             capacity, /*previous=*/nullptr));
  HERON_RETURN_NOT_OK(plan.Validate(/*require_dense_task_ids=*/true));
  return plan;
}

Result<PackingPlan> MctsPacking::Repack(
    const PackingPlan& current,
    const std::map<ComponentId, int>& parallelism_changes) {
  if (topology_ == nullptr) {
    return Status::FailedPrecondition("MctsPacking not initialized");
  }
  const Resource capacity =
      Resource::Max(current.MaxContainerResource(),
                    internal::ContainerCapacityFromConfig(config_));
  // The baseline resolves targets and validates arguments/capacity; the
  // search then re-decides only where the *added* instances go. Survivors
  // are pinned in their current containers — the minimal-disruption
  // contract the property tests check — so the search space is exactly
  // the placement of the additions.
  HERON_ASSIGN_OR_RETURN(
      PackingPlan baseline,
      internal::RepackMinimalDisruption(*topology_, current,
                                        parallelism_changes, capacity));
  std::vector<InstancePlan> additions;
  PackingPlan pinned;
  pinned.set_topology_name(baseline.topology_name());
  ContainerId max_container = -1;
  for (const ContainerPlan& c : baseline.containers()) {
    ContainerPlan keep;
    keep.id = c.id;
    keep.required = c.required;
    max_container = std::max(max_container, c.id);
    for (const InstancePlan& inst : c.instances) {
      if (current.FindContainerOfTask(inst.task_id) != nullptr) {
        keep.instances.push_back(inst);
      } else {
        additions.push_back(inst);
      }
    }
    // Keep even emptied containers as open candidates: the baseline
    // provisioned them, so the search may reuse their capacity.
    pinned.mutable_containers()->push_back(std::move(keep));
  }
  if (additions.empty()) {
    last_cost_ = EvaluatePlacement(*topology_, baseline, rates_, &current,
                                   weights_);
    return baseline;
  }
  // Additions are searched in task order (deterministic).
  std::sort(additions.begin(), additions.end(),
            [](const InstancePlan& a, const InstancePlan& b) {
              return a.task_id < b.task_id;
            });
  HERON_ASSIGN_OR_RETURN(
      PackingPlan plan,
      Search(pinned, std::move(additions), max_container + 1, capacity,
             &current));
  HERON_RETURN_NOT_OK(plan.Validate(/*require_dense_task_ids=*/false));
  return plan;
}

Result<PackingPlan> MctsPacking::Search(const PackingPlan& base,
                                        std::vector<InstancePlan> to_place,
                                        ContainerId first_fresh_id,
                                        const Resource& capacity,
                                        const PackingPlan* previous) {
  // Every instance must at least fit an empty container, or no assignment
  // can ever validate — fail fast with the same error the baseline gives.
  for (const InstancePlan& inst : to_place) {
    if (!FitsContainer(capacity, Resource(), inst.resources)) {
      return Status::ResourceExhausted(StrFormat(
          "instance of '%s' demands %s, beyond container capacity %s",
          inst.component.c_str(), inst.resources.ToString().c_str(),
          capacity.ToString().c_str()));
    }
  }

  std::vector<CState> base_state;
  for (const ContainerPlan& c : base.containers()) {
    CState s;
    s.id = c.id;
    s.load = c.InstanceTotal();
    s.instances = static_cast<int>(c.instances.size());
    for (const InstancePlan& inst : c.instances) {
      ++s.component_tasks[inst.component];
    }
    base_state.push_back(std::move(s));
  }

  // Legal actions for placing `inst` given container states: every
  // non-empty open container that fits, plus one representative empty
  // candidate (empty containers are interchangeable — symmetry
  // reduction), plus a fresh container when no empty one is open.
  const auto legal_actions = [&capacity](const std::vector<CState>& state,
                                         ContainerId next_fresh,
                                         const InstancePlan& inst) {
    std::vector<ContainerId> actions;
    bool have_empty = false;
    for (const CState& s : state) {
      if (s.instances == 0) {
        if (!have_empty) {
          have_empty = true;
          actions.push_back(s.id);
        }
        continue;
      }
      if (FitsContainer(capacity, s.load, inst.resources)) {
        actions.push_back(s.id);
      }
    }
    if (!have_empty) actions.push_back(next_fresh);
    return actions;
  };

  const auto apply = [](std::vector<CState>* state, ContainerId* next_fresh,
                        ContainerId choice, const InstancePlan& inst) {
    for (CState& s : *state) {
      if (s.id == choice) {
        s.load += inst.resources;
        ++s.instances;
        ++s.component_tasks[inst.component];
        return;
      }
    }
    CState fresh;
    fresh.id = choice;
    fresh.load = inst.resources;
    fresh.instances = 1;
    fresh.component_tasks[inst.component] = 1;
    state->push_back(std::move(fresh));
    *next_fresh = std::max(*next_fresh, static_cast<ContainerId>(choice + 1));
  };

  // Rollout policy: colocate with DAG neighbours (most adjacent tasks in
  // the container wins), tie-break on most free CPU, ε-random for
  // exploration diversity.
  Random rng(seed_);
  const auto rollout_choice = [this, &rng](
                                  const std::vector<CState>& state,
                                  const std::vector<ContainerId>& actions,
                                  const InstancePlan& inst) {
    if (actions.size() == 1) return actions.front();
    if (rng.NextBool(0.1)) {
      return actions[rng.NextBelow(actions.size())];
    }
    const auto adj_it = adjacent_.find(inst.component);
    ContainerId best = actions.front();
    double best_score = -std::numeric_limits<double>::infinity();
    for (const ContainerId action : actions) {
      int neighbours = 0;
      double free_cpu = 0;
      for (const CState& s : state) {
        if (s.id != action) continue;
        free_cpu = -s.load.cpu;
        if (adj_it != adjacent_.end()) {
          for (const ComponentId& other : adj_it->second) {
            const auto it = s.component_tasks.find(other);
            if (it != s.component_tasks.end()) neighbours += it->second;
          }
        }
        break;
      }
      // Neighbours dominate; free CPU (encoded as negative load) breaks
      // ties toward balance. Strict > keeps the lowest id on full ties.
      const double score = neighbours * 1000.0 + free_cpu;
      if (score > best_score) {
        best_score = score;
        best = action;
      }
    }
    return best;
  };

  const auto build_plan = [&base, &to_place](
                              const std::vector<ContainerId>& assignment) {
    PackingPlan plan;
    plan.set_topology_name(base.topology_name());
    *plan.mutable_containers() = base.containers();
    auto& containers = *plan.mutable_containers();
    for (size_t i = 0; i < assignment.size(); ++i) {
      ContainerPlan* dest = nullptr;
      for (ContainerPlan& c : containers) {
        if (c.id == assignment[i]) {
          dest = &c;
          break;
        }
      }
      if (dest == nullptr) {
        ContainerPlan fresh;
        fresh.id = assignment[i];
        containers.push_back(std::move(fresh));
        dest = &containers.back();
      }
      dest->instances.push_back(to_place[i]);
    }
    // Drop candidates that stayed empty; recompute requirements.
    containers.erase(std::remove_if(containers.begin(), containers.end(),
                                    [](const ContainerPlan& c) {
                                      return c.instances.empty();
                                    }),
                     containers.end());
    for (ContainerPlan& c : containers) {
      c.required =
          Resource::Max(c.required, c.InstanceTotal() + ContainerOverhead());
    }
    return plan;
  };

  Node root;
  std::vector<ContainerId> best_assignment;
  PlacementCost best_cost;
  double best_total = std::numeric_limits<double>::infinity();
  double worst_total = -std::numeric_limits<double>::infinity();

  for (int iter = 0; iter < iterations_; ++iter) {
    std::vector<CState> state = base_state;
    ContainerId next_fresh = first_fresh_id;
    std::vector<ContainerId> assignment;
    assignment.reserve(to_place.size());
    std::vector<Node*> visited{&root};

    // Selection + expansion.
    Node* node = &root;
    size_t depth = 0;
    while (depth < to_place.size()) {
      const InstancePlan& inst = to_place[depth];
      if (!node->expanded) {
        node->untried = legal_actions(state, next_fresh, inst);
        node->expanded = true;
      }
      ContainerId choice = -1;
      if (!node->untried.empty()) {
        const size_t pick = rng.NextBelow(node->untried.size());
        choice = node->untried[pick];
        node->untried.erase(node->untried.begin() + pick);
        auto child = std::make_unique<Node>();
        Node* raw = child.get();
        node->children.emplace(choice, std::move(child));
        apply(&state, &next_fresh, choice, inst);
        assignment.push_back(choice);
        visited.push_back(raw);
        ++depth;
        break;  // Expanded one node; rollout from here.
      }
      // Fully expanded: UCT descent.
      Node* best_child = nullptr;
      double best_uct = -std::numeric_limits<double>::infinity();
      for (const auto& [action, child] : node->children) {
        const double mean = child->value_sum / child->visits;
        const double uct =
            mean + kExploration * std::sqrt(std::log(node->visits + 1.0) /
                                            child->visits);
        if (uct > best_uct) {
          best_uct = uct;
          best_child = child.get();
          choice = action;
        }
      }
      apply(&state, &next_fresh, choice, inst);
      assignment.push_back(choice);
      node = best_child;
      visited.push_back(node);
      ++depth;
    }

    // Rollout to a complete assignment.
    for (; depth < to_place.size(); ++depth) {
      const InstancePlan& inst = to_place[depth];
      const auto actions = legal_actions(state, next_fresh, inst);
      const ContainerId choice = rollout_choice(state, actions, inst);
      apply(&state, &next_fresh, choice, inst);
      assignment.push_back(choice);
    }

    const PackingPlan plan = build_plan(assignment);
    const PlacementCost cost =
        EvaluatePlacement(*topology_, plan, rates_, previous, weights_);
    if (cost.total < best_total) {
      best_total = cost.total;
      best_cost = cost;
      best_assignment = assignment;
    }
    worst_total = std::max(worst_total, cost.total);

    // Backpropagate the [0, 1]-normalized reward (running min/max keep
    // the UCT exploration term meaningful across cost magnitudes).
    const double span = worst_total - best_total;
    const double reward =
        span > 0 ? (worst_total - cost.total) / span : 1.0;
    for (Node* n : visited) {
      ++n->visits;
      n->value_sum += reward;
    }
  }

  last_cost_ = best_cost;
  return build_plan(best_assignment);
}

}  // namespace packing
}  // namespace heron
