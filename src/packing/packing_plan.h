#ifndef HERON_PACKING_PACKING_PLAN_H_
#define HERON_PACKING_PACKING_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/resource.h"
#include "common/result.h"
#include "serde/message.h"

namespace heron {
namespace packing {

/// \brief One Heron Instance placement: which task runs where.
struct InstancePlan {
  TaskId task_id = -1;
  ComponentId component;
  int component_index = 0;  ///< 0-based index among this component's tasks.
  Resource resources;       ///< This instance's demand.

  bool operator==(const InstancePlan& o) const {
    return task_id == o.task_id && component == o.component &&
           component_index == o.component_index && resources == o.resources;
  }
};

/// \brief One container: its instances and the resource it must request
/// from the scheduling framework (§IV-A: "a mapping from containers to a
/// set of Heron Instances and their corresponding resource requirements").
struct ContainerPlan {
  ContainerId id = -1;
  std::vector<InstancePlan> instances;
  Resource required;  ///< Includes per-container overhead (SMGR, metrics).

  /// Sum of instance demands (excludes overhead).
  Resource InstanceTotal() const {
    Resource total;
    for (const auto& i : instances) total += i.resources;
    return total;
  }
};

/// \brief The Resource Manager's output: the packing plan.
class PackingPlan : public serde::Message {
 public:
  PackingPlan() = default;
  PackingPlan(std::string topology_name, std::vector<ContainerPlan> containers)
      : topology_name_(std::move(topology_name)),
        containers_(std::move(containers)) {}

  const std::string& topology_name() const { return topology_name_; }
  const std::vector<ContainerPlan>& containers() const { return containers_; }
  std::vector<ContainerPlan>* mutable_containers() { return &containers_; }
  void set_topology_name(std::string name) { topology_name_ = std::move(name); }

  int NumContainers() const { return static_cast<int>(containers_.size()); }
  int NumInstances() const;

  /// Container hosting `task`, or nullptr.
  const ContainerPlan* FindContainerOfTask(TaskId task) const;
  /// Container by id, or nullptr.
  const ContainerPlan* FindContainer(ContainerId id) const;

  /// All task ids of `component`, ascending.
  std::vector<TaskId> TasksOfComponent(const ComponentId& component) const;

  /// Current instance count per component (the repack baseline).
  std::map<ComponentId, int> ComponentParallelism() const;

  /// The largest per-container requirement — what a homogeneous-container
  /// framework (Aurora-like, §IV-B) must allocate for every container.
  Resource MaxContainerResource() const;

  /// Validation shared by all packers: task ids unique, component indices
  /// dense per component, container ids unique and non-negative, instances
  /// fit in their container's requirement. Freshly packed plans also have
  /// task ids dense from 0 (`require_dense_task_ids`); plans that have
  /// been scaled down legitimately contain holes.
  Status Validate(bool require_dense_task_ids = false) const;

  /// Wire format (stored in the State Manager, §IV-C).
  void SerializeTo(serde::WireEncoder* enc) const override;
  Status ParseFrom(serde::WireDecoder* dec) override;
  void Clear() override;

  bool operator==(const PackingPlan& o) const;

 private:
  std::string topology_name_;
  std::vector<ContainerPlan> containers_;
};

/// Per-container overhead added by every built-in packer for the Stream
/// Manager and Metrics Manager processes that each container runs (§II).
Resource ContainerOverhead();

}  // namespace packing
}  // namespace heron

#endif  // HERON_PACKING_PACKING_PLAN_H_
