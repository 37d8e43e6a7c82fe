#include "frameworks/sim_framework.h"

#include <iterator>

#include "common/logging.h"
#include "common/strings.h"

namespace heron {
namespace frameworks {

namespace {
struct KindTraits {
  const char* name;
  bool heterogeneous;
  bool auto_restart;
  bool grows;
};
// Indexed by FrameworkKind; the table in sim_framework.h explains each row.
constexpr KindTraits kKinds[] = {
    {"yarn", true, false, true},
    {"aurora", false, true, true},
    {"marathon", false, true, true},
    {"slurm", true, false, false},
};

const KindTraits& TraitsOf(FrameworkKind kind) {
  return kKinds[static_cast<size_t>(kind)];
}
}  // namespace

Result<FrameworkKind> ParseFrameworkKind(std::string_view name) {
  for (size_t i = 0; i < std::size(kKinds); ++i) {
    if (name == kKinds[i].name) return static_cast<FrameworkKind>(i);
  }
  return Status::InvalidArgument(
      StrFormat("unknown scheduler kind '%.*s'",
                static_cast<int>(name.size()), name.data()));
}

SimFramework::SimFramework(FrameworkKind kind, SimCluster* cluster)
    : kind_(kind), cluster_(cluster) {}

std::string SimFramework::Name() const { return TraitsOf(kind_).name; }

std::string SimFramework::Url() const {
  return "sim://" + Name() + ".cluster.local";
}

bool SimFramework::SupportsHeterogeneousContainers() const {
  return TraitsOf(kind_).heterogeneous;
}

bool SimFramework::AutoRestartsFailedContainers() const {
  return TraitsOf(kind_).auto_restart;
}

Status SimFramework::CheckAdmission(
    const Resource& reference, const std::vector<Resource>& demands) const {
  if (SupportsHeterogeneousContainers()) return Status::OK();
  for (const auto& demand : demands) {
    if (!(demand == reference)) {
      return Status::InvalidArgument(
          Name() + " requires homogeneous containers; demand " +
          demand.ToString() + " differs from " + reference.ToString());
    }
  }
  return Status::OK();
}

Result<JobId> SimFramework::SubmitJob(const JobSpec& spec) {
  if (spec.containers.empty()) {
    return Status::InvalidArgument("job has no containers");
  }
  if (spec.start == nullptr || spec.stop == nullptr) {
    return Status::InvalidArgument("job has no start/stop command");
  }
  HERON_RETURN_NOT_OK(CheckAdmission(spec.containers.front(), spec.containers));

  // Allocate everything up-front so failure leaves nothing behind.
  std::vector<AllocationId> allocations;
  for (const auto& demand : spec.containers) {
    auto alloc = cluster_->Allocate(demand);
    if (!alloc.ok()) {
      for (const AllocationId a : allocations) cluster_->Release(a).ok();
      return alloc.status().WithContext(
          StrFormat("admitting job '%s'", spec.name.c_str()));
    }
    allocations.push_back(*alloc);
  }

  JobId id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = StrFormat("%s/job-%llu", Name().c_str(),
                   static_cast<unsigned long long>(next_job_++));
    Job job;
    job.spec = spec;
    for (size_t i = 0; i < spec.containers.size(); ++i) {
      Container c;
      c.demand = spec.containers[i];
      c.status.index = static_cast<int>(i);
      c.status.state = ContainerState::kRunning;
      c.status.allocation = allocations[i];
      job.containers[static_cast<int>(i)] = std::move(c);
    }
    job.next_index = static_cast<int>(spec.containers.size());
    jobs_[id] = std::move(job);
  }
  for (size_t i = 0; i < spec.containers.size(); ++i) {
    spec.start(static_cast<int>(i));
  }
  HLOG(INFO) << "framework " << Name() << " started job " << id << " with "
             << spec.containers.size() << " containers";
  return id;
}

Status SimFramework::KillJob(const JobId& job_id) {
  JobSpec spec;
  std::vector<std::pair<int, AllocationId>> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound(StrFormat("job '%s' not found", job_id.c_str()));
    }
    spec = it->second.spec;
    for (const auto& [index, c] : it->second.containers) {
      if (c.status.state == ContainerState::kRunning) {
        live.emplace_back(index, c.status.allocation);
      }
    }
    jobs_.erase(it);
  }
  for (const auto& [index, alloc] : live) {
    spec.stop(index);
    cluster_->Release(alloc).ok();
  }
  HLOG(INFO) << "framework " << Name() << " killed job " << job_id;
  return Status::OK();
}

Result<std::vector<ContainerStatus>> SimFramework::JobStatus(
    const JobId& job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrFormat("job '%s' not found", job_id.c_str()));
  }
  std::vector<ContainerStatus> statuses;
  statuses.reserve(it->second.containers.size());
  for (const auto& [_, c] : it->second.containers) {
    statuses.push_back(c.status);
  }
  return statuses;
}

Status SimFramework::StartContainerSlot(const JobId& job_id, int index) {
  Resource demand;
  std::function<void(int)> start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound(StrFormat("job '%s' not found", job_id.c_str()));
    }
    const auto cit = it->second.containers.find(index);
    if (cit == it->second.containers.end()) {
      return Status::NotFound(
          StrFormat("job '%s' has no container %d", job_id.c_str(), index));
    }
    if (cit->second.status.state == ContainerState::kRunning) {
      return Status::FailedPrecondition(
          StrFormat("container %d already running", index));
    }
    demand = cit->second.demand;
    start = it->second.spec.start;
  }
  HERON_ASSIGN_OR_RETURN(AllocationId alloc, cluster_->Allocate(demand));
  ContainerStatus emitted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      cluster_->Release(alloc).ok();
      return Status::NotFound(
          StrFormat("job '%s' vanished during restart", job_id.c_str()));
    }
    auto& c = it->second.containers[index];
    c.status.state = ContainerState::kRunning;
    c.status.allocation = alloc;
    ++c.status.restarts;
    emitted = c.status;
  }
  start(index);
  EmitEvent(job_id, emitted);
  return Status::OK();
}

Status SimFramework::StopContainerSlot(const JobId& job_id, int index,
                                       ContainerState final_state) {
  AllocationId alloc = 0;
  std::function<void(int)> stop;
  ContainerStatus emitted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound(StrFormat("job '%s' not found", job_id.c_str()));
    }
    const auto cit = it->second.containers.find(index);
    if (cit == it->second.containers.end()) {
      return Status::NotFound(
          StrFormat("job '%s' has no container %d", job_id.c_str(), index));
    }
    if (cit->second.status.state != ContainerState::kRunning) {
      return Status::FailedPrecondition(
          StrFormat("container %d not running", index));
    }
    alloc = cit->second.status.allocation;
    cit->second.status.state = final_state;
    cit->second.status.allocation = 0;
    stop = it->second.spec.stop;
    emitted = cit->second.status;
  }
  stop(index);
  cluster_->Release(alloc).ok();
  EmitEvent(job_id, emitted);
  return Status::OK();
}

Status SimFramework::RestartContainer(const JobId& job_id, int index) {
  // Stop if currently running, then start.
  const Status stop_status =
      StopContainerSlot(job_id, index, ContainerState::kStopped);
  if (!stop_status.ok() && !stop_status.IsFailedPrecondition()) {
    return stop_status;
  }
  return StartContainerSlot(job_id, index);
}

Result<std::vector<int>> SimFramework::AddContainers(
    const JobId& job_id, const std::vector<Resource>& demands,
    const std::function<void(const std::vector<int>&)>& on_registered) {
  if (!TraitsOf(kind_).grows) {
    return Status::FailedPrecondition(
        Name() + " allocations are fixed at submission; resubmit to resize");
  }
  if (demands.empty()) {
    return Status::InvalidArgument("no containers to add");
  }
  std::vector<int> indices;
  std::function<void(int)> start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound(StrFormat("job '%s' not found", job_id.c_str()));
    }
    // Growth keeps the job's container size on homogeneous frameworks.
    const auto& containers = it->second.containers;
    if (!containers.empty()) {
      HERON_RETURN_NOT_OK(
          CheckAdmission(containers.begin()->second.demand, demands));
    }
    start = it->second.spec.start;
  }
  // Allocate atomically.
  std::vector<AllocationId> allocations;
  for (const auto& demand : demands) {
    auto alloc = cluster_->Allocate(demand);
    if (!alloc.ok()) {
      for (const AllocationId a : allocations) cluster_->Release(a).ok();
      return alloc.status().WithContext("growing job " + job_id);
    }
    allocations.push_back(*alloc);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      for (const AllocationId a : allocations) cluster_->Release(a).ok();
      return Status::NotFound(
          StrFormat("job '%s' vanished during scale-up", job_id.c_str()));
    }
    for (size_t i = 0; i < demands.size(); ++i) {
      const int index = it->second.next_index++;
      Container c;
      c.demand = demands[i];
      c.status.index = index;
      c.status.state = ContainerState::kRunning;
      c.status.allocation = allocations[i];
      it->second.containers[index] = std::move(c);
      indices.push_back(index);
    }
  }
  if (on_registered) on_registered(indices);
  for (const int index : indices) start(index);
  return indices;
}

Status SimFramework::RemoveContainer(const JobId& job_id, int index) {
  HERON_RETURN_NOT_OK(
      StopContainerSlot(job_id, index, ContainerState::kStopped));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it != jobs_.end()) it->second.containers.erase(index);
  return Status::OK();
}

void SimFramework::SetEventCallback(FrameworkEventCallback callback) {
  std::lock_guard<std::mutex> lock(mutex_);
  callback_ = std::move(callback);
}

void SimFramework::EmitEvent(const JobId& job, const ContainerStatus& status) {
  FrameworkEventCallback cb;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cb = callback_;
  }
  if (cb) cb(FrameworkEvent{job, status});
}

Status SimFramework::InjectContainerFailure(const JobId& job_id, int index) {
  HERON_RETURN_NOT_OK(
      StopContainerSlot(job_id, index, ContainerState::kFailed));
  HLOG(INFO) << "framework " << Name() << " container " << index << " of "
             << job_id << " failed";
  if (!AutoRestartsFailedContainers()) return Status::OK();
  // The framework's own supervisor brings the container back up.
  const Status st = StartContainerSlot(job_id, index);
  if (!st.ok()) {
    HLOG(ERROR) << Name() << " auto-restart of container " << index
                << " in " << job_id << " failed: " << st.ToString();
  } else {
    HLOG(INFO) << Name() << " auto-restarted container " << index << " of "
               << job_id;
  }
  return Status::OK();
}

}  // namespace frameworks
}  // namespace heron
