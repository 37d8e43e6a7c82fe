#include "packing/packing.h"

#include <algorithm>

#include "common/strings.h"

namespace heron {
namespace packing {
namespace internal {

std::vector<InstancePlan> EnumerateInstances(const api::Topology& topology) {
  std::vector<InstancePlan> instances;
  TaskId next_task = 0;
  for (const auto& component : topology.components()) {
    for (int i = 0; i < component.parallelism; ++i) {
      InstancePlan inst;
      inst.task_id = next_task++;
      inst.component = component.id;
      inst.component_index = i;
      inst.resources = component.resources;
      instances.push_back(std::move(inst));
    }
  }
  return instances;
}

Resource ContainerCapacityFromConfig(const Config& config) {
  return Resource(
      config.GetDoubleOr(config_keys::kContainerCpuHint, 8.0),
      config.GetIntOr(config_keys::kContainerRamMbHint, 16384),
      /*disk_mb=*/65536);
}

Result<PackingPlan> RepackMinimalDisruption(
    const api::Topology& topology, const PackingPlan& current,
    const std::map<ComponentId, int>& parallelism_changes,
    const Resource& capacity) {
  // Resolve target parallelism for every component.
  std::map<ComponentId, int> target = current.ComponentParallelism();
  for (const auto& [component, parallelism] : parallelism_changes) {
    if (topology.FindComponent(component) == nullptr) {
      return Status::NotFound(StrFormat(
          "scaling request names unknown component '%s'", component.c_str()));
    }
    if (parallelism < 1) {
      return Status::InvalidArgument(StrFormat(
          "component '%s' parallelism must be >= 1, got %d",
          component.c_str(), parallelism));
    }
    target[component] = parallelism;
  }

  // Copy the plan, dropping scaled-down instances (highest index first —
  // equivalently: keep only indices below the new target).
  PackingPlan next;
  next.set_topology_name(current.topology_name());
  TaskId max_task = -1;
  ContainerId max_container = -1;
  for (const auto& c : current.containers()) {
    ContainerPlan copy;
    copy.id = c.id;
    copy.required = c.required;
    max_container = std::max(max_container, c.id);
    for (const auto& inst : c.instances) {
      if (inst.component_index < target[inst.component]) {
        copy.instances.push_back(inst);
        max_task = std::max(max_task, inst.task_id);
      }
    }
    if (!copy.instances.empty()) {
      next.mutable_containers()->push_back(std::move(copy));
    }
  }

  // Enumerate the instances to add, in component declaration order.
  std::vector<InstancePlan> to_add;
  for (const auto& component : topology.components()) {
    const auto it = target.find(component.id);
    const int want = it == target.end() ? component.parallelism : it->second;
    const int have = static_cast<int>(next.TasksOfComponent(component.id).size());
    for (int idx = have; idx < want; ++idx) {
      InstancePlan inst;
      inst.task_id = ++max_task;
      inst.component = component.id;
      inst.component_index = idx;
      inst.resources = component.resources;
      to_add.push_back(std::move(inst));
    }
  }

  // Place additions: most free headroom first ("exploit the available free
  // space of the already provisioned containers" while "providing load
  // balancing for the newly added instances").
  auto& containers = *next.mutable_containers();
  for (auto& inst : to_add) {
    ContainerPlan* best = nullptr;
    double best_free_cpu = -1.0;
    for (auto& c : containers) {
      const Resource used = c.InstanceTotal() + ContainerOverhead();
      const Resource free = capacity - used;
      if (free.Fits(inst.resources) && free.cpu > best_free_cpu) {
        best = &c;
        best_free_cpu = free.cpu;
      }
    }
    if (best == nullptr) {
      if (!(capacity - ContainerOverhead()).Fits(inst.resources)) {
        return Status::ResourceExhausted(StrFormat(
            "instance of '%s' demands %s, beyond container capacity %s",
            inst.component.c_str(), inst.resources.ToString().c_str(),
            capacity.ToString().c_str()));
      }
      ContainerPlan fresh;
      fresh.id = ++max_container;
      containers.push_back(std::move(fresh));
      best = &containers.back();
    }
    best->instances.push_back(std::move(inst));
  }

  // Recompute requirements for touched containers.
  for (auto& c : containers) {
    const Resource demand = c.InstanceTotal() + ContainerOverhead();
    c.required = Resource::Max(c.required, demand);
  }

  HERON_RETURN_NOT_OK(next.Validate(/*require_dense_task_ids=*/false));
  return next;
}

}  // namespace internal
}  // namespace packing
}  // namespace heron
