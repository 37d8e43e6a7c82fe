#ifndef HERON_FRAMEWORKS_SIM_CLUSTER_H_
#define HERON_FRAMEWORKS_SIM_CLUSTER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/resource.h"
#include "common/result.h"

namespace heron {
namespace frameworks {

using NodeId = int32_t;
using AllocationId = uint64_t;

/// \brief The machine substrate the scheduling-framework simulations run
/// on: a set of nodes with capacities, tracking live allocations.
///
/// Substitute for the paper's HDInsight / Twitter clusters. Admission is
/// strict — an allocation that does not fit any node is refused with
/// kResourceExhausted, which is exactly the failure mode the Scheduler
/// must surface when a packing plan over-asks. Thread-safe.
class SimCluster {
 public:
  /// Adds a node; returns its id.
  NodeId AddNode(const Resource& capacity);
  /// Adds `count` identical nodes.
  void AddNodes(int count, const Resource& capacity);

  /// First-fit allocation across nodes in id order.
  Result<AllocationId> Allocate(const Resource& demand);
  /// Releases a live allocation.
  Status Release(AllocationId id);

  /// Node hosting a live allocation.
  Result<NodeId> NodeOf(AllocationId id) const;

  size_t num_allocations() const;
  Resource TotalUsed() const;
  /// Free resources on one node.
  Result<Resource> FreeOn(NodeId node) const;

 private:
  struct Node {
    Resource capacity;
    Resource used;
  };
  struct Allocation {
    NodeId node;
    Resource demand;
  };

  mutable std::mutex mutex_;
  std::vector<Node> nodes_;
  std::map<AllocationId, Allocation> allocations_;
  AllocationId next_allocation_ = 1;
};

}  // namespace frameworks
}  // namespace heron

#endif  // HERON_FRAMEWORKS_SIM_CLUSTER_H_
