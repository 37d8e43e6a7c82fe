#ifndef HERON_STATEMGR_STATE_MANAGER_H_
#define HERON_STATEMGR_STATE_MANAGER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "serde/wire.h"

namespace heron {
namespace statemgr {

/// Session handle for ephemeral-node ownership; 0 is "no session".
using SessionId = uint64_t;
inline constexpr SessionId kNoSession = 0;

/// \brief What changed under a watched path.
enum class WatchEventType : uint8_t {
  kCreated = 0,
  kDataChanged = 1,
  kDeleted = 2,
  kChildrenChanged = 3,
};

struct WatchEvent {
  WatchEventType type;
  std::string path;
};

/// One-shot watch callback, ZooKeeper style: fires once, then must be
/// re-armed. May be invoked from the mutating thread; callbacks must not
/// call back into the state manager while handling the event on pain of
/// deadlock (matching ZK client single-event-thread discipline).
using WatchCallback = std::function<void(const WatchEvent&)>;

/// \brief Heron's distributed coordination and topology-metadata store
/// (§IV-C).
///
/// "Both implementations currently operate on tree-structured storage
/// where the root of the tree is supplied by the Heron administrator."
/// Paths are "/"-separated, absolute under the configured root. The
/// module is pluggable: the two built-ins mirror the paper's ZooKeeper
/// and local-filesystem implementations, and new backends register just
/// like new packing policies.
class IStateManager {
 public:
  virtual ~IStateManager() = default;

  /// Binds to the configured root path. Must be called once, first.
  virtual Status Initialize(const Config& config) = 0;
  virtual Status Close() = 0;

  /// Creates a node (parents must exist; the root always exists).
  /// Ephemeral nodes (`session != kNoSession`) disappear when their
  /// session ends — this is how TMaster location advertisement detects a
  /// dead TMaster.
  virtual Status CreateNode(const std::string& path, serde::BytesView data,
                            SessionId session = kNoSession) = 0;

  /// Overwrites the data of an existing node.
  virtual Status SetNodeData(const std::string& path,
                             serde::BytesView data) = 0;

  /// Reads a node's data.
  virtual Result<serde::Buffer> GetNodeData(const std::string& path) const = 0;

  /// Deletes a node; kFailedPrecondition when it has children.
  virtual Status DeleteNode(const std::string& path) = 0;

  virtual Result<bool> ExistsNode(const std::string& path) const = 0;

  /// Immediate child names (not full paths), sorted.
  virtual Result<std::vector<std::string>> ListChildren(
      const std::string& path) const = 0;

  /// Arms a one-shot watch on `path` (existence, data, children).
  virtual Status Watch(const std::string& path, WatchCallback callback) = 0;

  /// Opens a session owning ephemeral nodes.
  virtual Result<SessionId> OpenSession() = 0;

  /// Ends a session: its ephemeral nodes are deleted (firing watches).
  /// Also how tests simulate a TMaster crash.
  virtual Status CloseSession(SessionId session) = 0;

  /// Backend name ("IN_MEMORY", "LOCAL_FILE", ...).
  virtual std::string Name() const = 0;
};

/// Validates a state path: absolute, "/"-separated, non-empty segments,
/// no "." / ".." segments.
Status ValidatePath(const std::string& path);

/// Splits "/a/b/c" into {"a","b","c"}; "/" yields {}.
std::vector<std::string> SplitPath(const std::string& path);

/// Parent of "/a/b/c" is "/a/b"; parent of "/a" is "/".
std::string ParentPath(const std::string& path);

/// Creates every missing ancestor of `path` (with empty data) and then
/// `path` itself with `data`; existing nodes are left untouched except the
/// leaf, which is overwritten.
Status EnsurePath(IStateManager* sm, const std::string& path,
                  serde::BytesView data);

/// Recursively deletes `path` and everything under it (children first).
/// kNotFound when the path does not exist. Used to garbage-collect
/// superseded checkpoint trees.
Status DeleteTree(IStateManager* sm, const std::string& path);

/// Canonical locations of topology metadata under the root, mirroring the
/// layout Heron uses in ZooKeeper (§IV-C lists what is stored: topology
/// definition, packing plan, container locations, scheduler URL, ...).
namespace paths {
std::string Topologies();
std::string TopologyDef(const std::string& topology);
std::string PackingPlan(const std::string& topology);
std::string TMasterLocation(const std::string& topology);
std::string SchedulerLocation(const std::string& topology);
std::string ContainerInfo(const std::string& topology, int container);
std::string Containers(const std::string& topology);
/// Parent of the per-container backpressure markers the TMaster keeps so
/// the topology status reflects which containers are currently initiating
/// cluster-wide spout back pressure.
std::string Backpressure(const std::string& topology);
std::string BackpressureContainer(const std::string& topology, int container);
/// Topology-level rollup JSON (throughput, latency quantiles,
/// backpressure time, restarts over the newest cache window).
std::string MetricsTopologyRollup(const std::string& topology);
/// One component's rollup JSON.
std::string MetricsComponent(const std::string& topology,
                             const std::string& component);
/// Parent of the checkpoint trees; its node data holds the id of the
/// latest globally-complete checkpoint (decimal string, absent/empty
/// when none has completed yet).
std::string Checkpoints(const std::string& topology);
/// One checkpoint's tree; children are per-task snapshot nodes, and the
/// node's own data flips from "" to "complete" when every task reported.
std::string Checkpoint(const std::string& topology, uint64_t ckpt_id);
/// One task's snapshot inside a checkpoint.
std::string CheckpointTask(const std::string& topology, uint64_t ckpt_id,
                           int task);
/// Parent of the ScalingPolicyEngine's published decision records; its
/// node data holds the sequence number of the latest decision.
std::string Scaling(const std::string& topology);
/// One scaling decision record (JSON: trigger signals, component, old and
/// new parallelism, packing algorithm, outcome).
std::string ScalingDecision(const std::string& topology, uint64_t seq);
}  // namespace paths

/// \brief Instantiates the backend named by `heron.statemgr.kind`
/// (IN_MEMORY default, LOCAL_FILE) and initializes it.
Result<std::unique_ptr<IStateManager>> CreateStateManager(
    const Config& config);

}  // namespace statemgr
}  // namespace heron

#endif  // HERON_STATEMGR_STATE_MANAGER_H_
