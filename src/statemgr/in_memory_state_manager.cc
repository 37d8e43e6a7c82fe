#include "statemgr/in_memory_state_manager.h"

#include <algorithm>

#include "common/strings.h"

namespace heron {
namespace statemgr {

Status InMemoryStateManager::Initialize(const Config& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (initialized_) {
    return Status::FailedPrecondition("state manager already initialized");
  }
  initialized_ = true;
  return Status::OK();
}

Status InMemoryStateManager::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  initialized_ = false;
  nodes_.clear();
  watches_.clear();
  sessions_.clear();
  return Status::OK();
}

bool InMemoryStateManager::ExistsLocked(const std::string& path) const {
  return path == "/" || nodes_.count(path) != 0;
}

bool InMemoryStateManager::HasChildLocked(const std::string& path) const {
  const std::string prefix = path == "/" ? "/" : path + "/";
  const auto it = nodes_.lower_bound(prefix);
  return it != nodes_.end() && StartsWith(it->first, prefix);
}

void InMemoryStateManager::CollectWatchesLocked(
    const std::string& path, WatchEventType type,
    std::vector<std::pair<WatchCallback, WatchEvent>>* out) {
  auto [begin, end] = watches_.equal_range(path);
  for (auto it = begin; it != end; ++it) {
    out->emplace_back(std::move(it->second), WatchEvent{type, path});
  }
  watches_.erase(begin, end);
}

Status InMemoryStateManager::CreateNode(const std::string& path,
                                        serde::BytesView data,
                                        SessionId session) {
  HERON_RETURN_NOT_OK(ValidatePath(path));
  std::vector<std::pair<WatchCallback, WatchEvent>> fired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!initialized_) {
      return Status::FailedPrecondition("state manager not initialized");
    }
    if (ExistsLocked(path)) {
      return Status::AlreadyExists(
          StrFormat("node '%s' already exists", path.c_str()));
    }
    const std::string parent = ParentPath(path);
    if (!ExistsLocked(parent)) {
      return Status::NotFound(
          StrFormat("parent '%s' does not exist", parent.c_str()));
    }
    if (session != kNoSession && sessions_.count(session) == 0) {
      return Status::NotFound(StrFormat(
          "session %llu is not open", static_cast<unsigned long long>(session)));
    }
    nodes_[path] = Node{serde::Buffer(data), session};
    CollectWatchesLocked(path, WatchEventType::kCreated, &fired);
    CollectWatchesLocked(parent, WatchEventType::kChildrenChanged, &fired);
  }
  for (auto& [cb, event] : fired) cb(event);
  return Status::OK();
}

Status InMemoryStateManager::SetNodeData(const std::string& path,
                                         serde::BytesView data) {
  HERON_RETURN_NOT_OK(ValidatePath(path));
  std::vector<std::pair<WatchCallback, WatchEvent>> fired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = nodes_.find(path);
    if (it == nodes_.end()) {
      return Status::NotFound(StrFormat("node '%s' not found", path.c_str()));
    }
    it->second.data = serde::Buffer(data);
    CollectWatchesLocked(path, WatchEventType::kDataChanged, &fired);
  }
  for (auto& [cb, event] : fired) cb(event);
  return Status::OK();
}

Result<serde::Buffer> InMemoryStateManager::GetNodeData(
    const std::string& path) const {
  HERON_RETURN_NOT_OK(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return Status::NotFound(StrFormat("node '%s' not found", path.c_str()));
  }
  return it->second.data;
}

Status InMemoryStateManager::DeleteNodeInternal(
    const std::string& path,
    std::vector<std::pair<WatchCallback, WatchEvent>>* fired) {
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return Status::NotFound(StrFormat("node '%s' not found", path.c_str()));
  }
  if (HasChildLocked(path)) {
    return Status::FailedPrecondition(
        StrFormat("node '%s' has children", path.c_str()));
  }
  nodes_.erase(it);
  CollectWatchesLocked(path, WatchEventType::kDeleted, fired);
  CollectWatchesLocked(ParentPath(path), WatchEventType::kChildrenChanged,
                       fired);
  return Status::OK();
}

Status InMemoryStateManager::DeleteNode(const std::string& path) {
  HERON_RETURN_NOT_OK(ValidatePath(path));
  std::vector<std::pair<WatchCallback, WatchEvent>> fired;
  Status st;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    st = DeleteNodeInternal(path, &fired);
  }
  for (auto& [cb, event] : fired) cb(event);
  return st;
}

Result<bool> InMemoryStateManager::ExistsNode(const std::string& path) const {
  HERON_RETURN_NOT_OK(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mutex_);
  return ExistsLocked(path);
}

Result<std::vector<std::string>> InMemoryStateManager::ListChildren(
    const std::string& path) const {
  HERON_RETURN_NOT_OK(ValidatePath(path == "/" ? "/x" : path));
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ExistsLocked(path)) {
    return Status::NotFound(StrFormat("node '%s' not found", path.c_str()));
  }
  const std::string prefix = path == "/" ? "/" : path + "/";
  std::vector<std::string> children;
  for (auto it = nodes_.lower_bound(prefix);
       it != nodes_.end() && StartsWith(it->first, prefix); ++it) {
    const std::string rest = it->first.substr(prefix.size());
    if (rest.find('/') == std::string::npos) {
      children.push_back(rest);
    }
  }
  return children;
}

Status InMemoryStateManager::Watch(const std::string& path,
                                   WatchCallback callback) {
  HERON_RETURN_NOT_OK(ValidatePath(path));
  if (callback == nullptr) {
    return Status::InvalidArgument("null watch callback");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  watches_.emplace(path, std::move(callback));
  return Status::OK();
}

Result<SessionId> InMemoryStateManager::OpenSession() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!initialized_) {
    return Status::FailedPrecondition("state manager not initialized");
  }
  const SessionId id = next_session_++;
  sessions_.insert(id);
  return id;
}

Status InMemoryStateManager::CloseSession(SessionId session) {
  std::vector<std::pair<WatchCallback, WatchEvent>> fired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.erase(session) == 0) {
      return Status::NotFound(StrFormat(
          "session %llu is not open", static_cast<unsigned long long>(session)));
    }
    // Delete ephemerals owned by the session, deepest paths first so the
    // no-children invariant holds.
    std::vector<std::string> ephemerals;
    for (const auto& [path, node] : nodes_) {
      if (node.owner == session) ephemerals.push_back(path);
    }
    std::sort(ephemerals.begin(), ephemerals.end(),
              [](const std::string& a, const std::string& b) {
                return a.size() > b.size();
              });
    for (const auto& path : ephemerals) {
      DeleteNodeInternal(path, &fired).ok();
    }
  }
  for (auto& [cb, event] : fired) cb(event);
  return Status::OK();
}

}  // namespace statemgr
}  // namespace heron
