#ifndef HERON_METRICS_METRICS_MANAGER_H_
#define HERON_METRICS_METRICS_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "metrics/metrics.h"

namespace heron {
namespace metrics {

/// \brief Destination for collected metrics; pluggable like every other
/// Heron module.
class IMetricsSink {
 public:
  virtual ~IMetricsSink() = default;
  /// Receives one collection round: (source process name, samples).
  virtual void Flush(const std::string& source,
                     const std::vector<Sample>& samples,
                     int64_t collected_at_nanos) = 0;
};

/// \brief The per-container Metrics Manager (§II: "collects several
/// metrics about the status of the processes in a container").
///
/// Processes in the container (the SMGR, each Heron Instance) register
/// their MetricsRegistry under a source name; Collect() snapshots every
/// registry and forwards to the configured sinks. The container runtime
/// calls Collect on its housekeeping interval; tests call it directly.
class MetricsManager {
 public:
  explicit MetricsManager(const Clock* clock) : clock_(clock) {}

  /// Registers a process's registry under `source`. The registry must
  /// outlive the manager or be removed first.
  Status RegisterSource(const std::string& source, MetricsRegistry* registry);
  Status RemoveSource(const std::string& source);

  void AddSink(std::shared_ptr<IMetricsSink> sink);

  /// Registers a callback invoked after every Collect() round, on the
  /// collecting thread. Waiters (e.g. LocalCluster::WaitForCounter) hook
  /// their condition variables here instead of sleep-polling.
  void AddCollectListener(std::function<void()> listener);

  /// Snapshots every source into every sink, then notifies the collect
  /// listeners. Snapshotting is skipped when no sink is attached (the
  /// listeners still fire — they key off the collection heartbeat).
  void Collect();

  std::vector<std::string> Sources() const;

 private:
  const Clock* clock_;
  mutable std::mutex mutex_;
  std::map<std::string, MetricsRegistry*> sources_;
  std::vector<std::shared_ptr<IMetricsSink>> sinks_;
  std::vector<std::function<void()>> listeners_;
};

}  // namespace metrics
}  // namespace heron

#endif  // HERON_METRICS_METRICS_MANAGER_H_
