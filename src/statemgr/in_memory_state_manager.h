#ifndef HERON_STATEMGR_IN_MEMORY_STATE_MANAGER_H_
#define HERON_STATEMGR_IN_MEMORY_STATE_MANAGER_H_

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "statemgr/state_manager.h"

namespace heron {
namespace statemgr {

/// \brief ZooKeeper-semantics state manager backed by an in-process tree.
///
/// Stands in for the paper's "State Manager implementation using Apache
/// Zookeeper for distributed coordination" (§IV-C): hierarchical nodes,
/// one-shot watches, sessions with ephemeral nodes that vanish on session
/// close. All the coordination behaviour the engine relies on — TMaster
/// location advertisement, death detection via ephemeral expiry, plan
/// change notification — runs through the same API surface a ZK-backed
/// implementation would provide. Thread-safe.
class InMemoryStateManager final : public IStateManager {
 public:
  Status Initialize(const Config& config) override;
  Status Close() override;

  Status CreateNode(const std::string& path, serde::BytesView data,
                    SessionId session = kNoSession) override;
  Status SetNodeData(const std::string& path, serde::BytesView data) override;
  Result<serde::Buffer> GetNodeData(const std::string& path) const override;
  Status DeleteNode(const std::string& path) override;
  Result<bool> ExistsNode(const std::string& path) const override;
  Result<std::vector<std::string>> ListChildren(
      const std::string& path) const override;
  Status Watch(const std::string& path, WatchCallback callback) override;
  Result<SessionId> OpenSession() override;
  Status CloseSession(SessionId session) override;
  std::string Name() const override { return "IN_MEMORY"; }

 private:
  struct Node {
    serde::Buffer data;
    SessionId owner = kNoSession;  ///< Ephemeral when != kNoSession.
  };

  bool ExistsLocked(const std::string& path) const;
  bool HasChildLocked(const std::string& path) const;
  /// Collects the one-shot watches to fire for `path`/`event`, removing
  /// them from the table; the caller fires them after dropping the lock.
  void CollectWatchesLocked(const std::string& path, WatchEventType type,
                            std::vector<std::pair<WatchCallback, WatchEvent>>* out);
  Status DeleteNodeInternal(const std::string& path,
                            std::vector<std::pair<WatchCallback, WatchEvent>>* fired);

  mutable std::mutex mutex_;
  bool initialized_ = false;
  std::map<std::string, Node> nodes_;  ///< Path → node; root implicit.
  std::multimap<std::string, WatchCallback> watches_;
  std::set<SessionId> sessions_;
  SessionId next_session_ = 1;
};

}  // namespace statemgr
}  // namespace heron

#endif  // HERON_STATEMGR_IN_MEMORY_STATE_MANAGER_H_
