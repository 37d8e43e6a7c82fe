#ifndef HERON_OBSERVABILITY_METRICS_CACHE_H_
#define HERON_OBSERVABILITY_METRICS_CACHE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/ids.h"
#include "metrics/metrics_manager.h"
#include "observability/json.h"
#include "statemgr/state_manager.h"

namespace heron {
namespace observability {

/// \brief One rolling-window aggregate for a component (or, with
/// component == kTopologyRollup, the whole topology).
struct ComponentRollup {
  /// Component name, or kTopologyRollup for the topology-level total.
  std::string component;
  int64_t window_start_nanos = 0;
  /// Wall-clock actually covered by collection rounds inside the window
  /// (first round → last round); throughput divides by this.
  double window_covered_sec = 0;
  int tasks = 0;
  /// Tuples processed inside the window (counter delta: executed + emitted).
  double processed_delta = 0;
  /// Cumulative tuples processed up to the window's last round.
  double processed_total = 0;
  double throughput_tps = 0;
  /// Spout end-to-end (complete) latency quantiles, ms; 0 for bolts.
  double latency_p50_ms = 0;
  double latency_p90_ms = 0;
  double latency_p99_ms = 0;
  /// Cluster-wide backpressure time initiated inside the window, ms
  /// (topology rollup only — backpressure is per-SMGR, not per-component).
  double backpressure_ms = 0;
  /// Container restarts observed so far (topology rollup only).
  uint64_t restarts = 0;

  std::string ToJson() const;
  static Result<ComponentRollup> FromJson(std::string_view text);
  /// Nested forms, for embedding in larger documents (TopologySnapshot).
  void AppendTo(json::Writer* w) const;
  static ComponentRollup FromValue(const json::Value& v);
};

inline constexpr char kTopologyRollup[] = "_topology";

/// \brief The TMaster's metrics cache (§II: the Topology Master is "the
/// gateway for the topology metrics").
///
/// An IMetricsSink that every container's Metrics Manager flushes into
/// (the TMaster "subscribes" to each container by having the runtime add
/// this sink at container start). Collection rounds are bucketed into
/// rolling time windows of `window_nanos`; at most `max_windows` windows
/// are retained. Per window the cache keeps, per source, the first and
/// last value of every sample — enough to compute counter deltas
/// (throughput, backpressure time) and latest-value gauges/quantiles
/// without retaining raw rounds.
///
/// When a publish target is attached, rollups are written as JSON under
/// /topologies/<t>/metrics/... whenever the window rolls (and on
/// PublishNow), so topology-level metrics are queryable from the state
/// tree rather than by scanning raw sinks.
///
/// Thread safety: Flush arrives concurrently from every container's
/// housekeeping thread; all state is guarded by one mutex (collection
/// cadence is O(100ms), far off the data plane).
class MetricsCache final : public metrics::IMetricsSink {
 public:
  struct Options {
    int64_t window_nanos = 1'000'000'000;  ///< kMetricsCacheWindowSec.
    size_t max_windows = 60;               ///< Rolling windows retained.
  };

  MetricsCache() : MetricsCache(Options()) {}
  explicit MetricsCache(Options options);

  /// Task → component mapping (from the physical plan) plus the topology
  /// name; required before rollups attribute task sources to components.
  void SetTopology(const std::string& topology,
                   std::map<TaskId, ComponentId> task_component);

  /// Attaches the state tree target for published rollups.
  void SetPublishTarget(statemgr::IStateManager* sm);

  /// Records a container restart (fed by the recovery path).
  void NoteRestart(ContainerId container);

  // -- IMetricsSink --------------------------------------------------------
  void Flush(const std::string& source, const std::vector<metrics::Sample>& samples,
             int64_t collected_at_nanos) override;

  /// Per-component rollups over the newest window with data (sorted by
  /// component name).
  std::vector<ComponentRollup> ComponentRollups() const;
  /// Topology-level rollup over the newest window with data.
  ComponentRollup TopologyRollup() const;
  /// Per-task processed deltas (executed + emitted, reset-rebased) over
  /// the newest window with data — the scaling engine's skew signal.
  std::map<TaskId, double> PerTaskProcessedDelta() const;

  /// Writes the current rollups to the state tree now (no-op without a
  /// publish target or topology).
  Status PublishNow();

  size_t window_count() const;
  uint64_t rounds_ingested() const;

 private:
  struct SourceWindow {
    int64_t first_at_nanos = 0;
    int64_t last_at_nanos = 0;
    std::map<std::string, double> first;
    std::map<std::string, double> last;
  };
  struct Window {
    int64_t bucket = 0;  ///< collected_at_nanos / window_nanos.
    std::map<std::string, SourceWindow> sources;
  };

  /// Rollups over `w`; locked by caller.
  std::vector<ComponentRollup> RollupsLocked(const Window& w) const;
  ComponentRollup TopologyRollupLocked(const Window& w) const;
  Status PublishLocked();
  const Window* NewestWindowLocked() const;

  const Options options_;

  mutable std::mutex mutex_;
  std::string topology_;
  std::map<TaskId, ComponentId> task_component_;
  statemgr::IStateManager* publish_target_ = nullptr;
  std::deque<Window> windows_;  ///< Oldest-first; size <= max_windows.
  uint64_t rounds_ingested_ = 0;
  uint64_t restarts_ = 0;
};

}  // namespace observability
}  // namespace heron

#endif  // HERON_OBSERVABILITY_METRICS_CACHE_H_
