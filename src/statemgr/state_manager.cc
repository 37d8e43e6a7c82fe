#include "statemgr/state_manager.h"

#include "common/strings.h"
#include "statemgr/in_memory_state_manager.h"
#include "statemgr/local_file_state_manager.h"

namespace heron {
namespace statemgr {

Status ValidatePath(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument(
        StrFormat("state path must be absolute: '%s'", path.c_str()));
  }
  if (path.size() > 1 && path.back() == '/') {
    return Status::InvalidArgument(
        StrFormat("state path must not end with '/': '%s'", path.c_str()));
  }
  for (const auto& seg : SplitPath(path)) {
    if (seg.empty()) {
      return Status::InvalidArgument(
          StrFormat("state path has empty segment: '%s'", path.c_str()));
    }
    if (seg == "." || seg == "..") {
      return Status::InvalidArgument(StrFormat(
          "state path must not contain '.'/'..': '%s'", path.c_str()));
    }
  }
  return Status::OK();
}

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> segments;
  size_t start = 1;  // Skip leading '/'.
  while (start <= path.size()) {
    const size_t pos = path.find('/', start);
    if (pos == std::string::npos) {
      if (start < path.size()) segments.push_back(path.substr(start));
      break;
    }
    segments.push_back(path.substr(start, pos - start));
    start = pos + 1;
  }
  return segments;
}

std::string ParentPath(const std::string& path) {
  const size_t pos = path.find_last_of('/');
  if (pos == 0) return "/";
  return path.substr(0, pos);
}

Status EnsurePath(IStateManager* sm, const std::string& path,
                  serde::BytesView data) {
  HERON_RETURN_NOT_OK(ValidatePath(path));
  const auto segments = SplitPath(path);
  std::string current;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    current += "/" + segments[i];
    HERON_ASSIGN_OR_RETURN(bool exists, sm->ExistsNode(current));
    if (!exists) {
      HERON_RETURN_NOT_OK(sm->CreateNode(current, ""));
    }
  }
  HERON_ASSIGN_OR_RETURN(bool exists, sm->ExistsNode(path));
  if (exists) {
    return sm->SetNodeData(path, data);
  }
  return sm->CreateNode(path, data);
}

Status DeleteTree(IStateManager* sm, const std::string& path) {
  HERON_ASSIGN_OR_RETURN(auto children, sm->ListChildren(path));
  for (const auto& child : children) {
    HERON_RETURN_NOT_OK(DeleteTree(sm, path + "/" + child));
  }
  return sm->DeleteNode(path);
}

namespace paths {

std::string Topologies() { return "/topologies"; }

std::string TopologyDef(const std::string& topology) {
  return "/topologies/" + topology + "/definition";
}

std::string PackingPlan(const std::string& topology) {
  return "/topologies/" + topology + "/packingplan";
}

std::string TMasterLocation(const std::string& topology) {
  return "/topologies/" + topology + "/tmaster";
}

std::string SchedulerLocation(const std::string& topology) {
  return "/topologies/" + topology + "/scheduler";
}

std::string Containers(const std::string& topology) {
  return "/topologies/" + topology + "/containers";
}

std::string ContainerInfo(const std::string& topology, int container) {
  return StrFormat("/topologies/%s/containers/%d", topology.c_str(),
                   container);
}

std::string Backpressure(const std::string& topology) {
  return "/topologies/" + topology + "/backpressure";
}

std::string BackpressureContainer(const std::string& topology, int container) {
  return StrFormat("/topologies/%s/backpressure/%d", topology.c_str(),
                   container);
}

std::string MetricsTopologyRollup(const std::string& topology) {
  return "/topologies/" + topology + "/metrics/topology";
}

std::string MetricsComponent(const std::string& topology,
                             const std::string& component) {
  return StrFormat("/topologies/%s/metrics/components/%s", topology.c_str(),
                   component.c_str());
}

std::string Checkpoints(const std::string& topology) {
  return "/topologies/" + topology + "/checkpoints";
}

std::string Checkpoint(const std::string& topology, uint64_t ckpt_id) {
  return StrFormat("/topologies/%s/checkpoints/%llu", topology.c_str(),
                   static_cast<unsigned long long>(ckpt_id));
}

std::string CheckpointTask(const std::string& topology, uint64_t ckpt_id,
                           int task) {
  return StrFormat("/topologies/%s/checkpoints/%llu/%d", topology.c_str(),
                   static_cast<unsigned long long>(ckpt_id), task);
}

std::string Scaling(const std::string& topology) {
  return "/topologies/" + topology + "/scaling";
}

std::string ScalingDecision(const std::string& topology, uint64_t seq) {
  return StrFormat("/topologies/%s/scaling/%llu", topology.c_str(),
                   static_cast<unsigned long long>(seq));
}

}  // namespace paths

Result<std::unique_ptr<IStateManager>> CreateStateManager(
    const Config& config) {
  const std::string kind =
      config.GetStringOr(config_keys::kStateManagerKind, "IN_MEMORY");
  std::unique_ptr<IStateManager> sm;
  if (kind == "IN_MEMORY") {
    sm = std::make_unique<InMemoryStateManager>();
  } else if (kind == "LOCAL_FILE") {
    sm = std::make_unique<LocalFileStateManager>();
  } else {
    return Status::NotFound(
        StrFormat("unknown state manager kind '%s'", kind.c_str()));
  }
  HERON_RETURN_NOT_OK(sm->Initialize(config));
  return sm;
}

}  // namespace statemgr
}  // namespace heron
