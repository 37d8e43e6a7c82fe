#include "frameworks/sim_cluster.h"

#include "common/strings.h"

namespace heron {
namespace frameworks {

NodeId SimCluster::AddNode(const Resource& capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  nodes_.push_back({capacity, Resource()});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void SimCluster::AddNodes(int count, const Resource& capacity) {
  for (int i = 0; i < count; ++i) AddNode(capacity);
}

Result<AllocationId> SimCluster::Allocate(const Resource& demand) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const Resource free = nodes_[n].capacity - nodes_[n].used;
    if (free.Fits(demand)) {
      nodes_[n].used += demand;
      const AllocationId id = next_allocation_++;
      allocations_[id] = {static_cast<NodeId>(n), demand};
      return id;
    }
  }
  return Status::ResourceExhausted(
      StrFormat("no node can host %s", demand.ToString().c_str()));
}

Status SimCluster::Release(AllocationId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = allocations_.find(id);
  if (it == allocations_.end()) {
    return Status::NotFound(StrFormat(
        "allocation %llu not live", static_cast<unsigned long long>(id)));
  }
  nodes_[static_cast<size_t>(it->second.node)].used -= it->second.demand;
  allocations_.erase(it);
  return Status::OK();
}

Result<NodeId> SimCluster::NodeOf(AllocationId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = allocations_.find(id);
  if (it == allocations_.end()) {
    return Status::NotFound(StrFormat(
        "allocation %llu not live", static_cast<unsigned long long>(id)));
  }
  return it->second.node;
}

size_t SimCluster::num_allocations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocations_.size();
}

Resource SimCluster::TotalUsed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Resource total;
  for (const auto& n : nodes_) total += n.used;
  return total;
}

Result<Resource> SimCluster::FreeOn(NodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (node < 0 || static_cast<size_t>(node) >= nodes_.size()) {
    return Status::NotFound(StrFormat("no node %d", node));
  }
  return nodes_[static_cast<size_t>(node)].capacity -
         nodes_[static_cast<size_t>(node)].used;
}

}  // namespace frameworks
}  // namespace heron
