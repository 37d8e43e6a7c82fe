#ifndef HERON_TMASTER_SCALING_POLICY_ENGINE_H_
#define HERON_TMASTER_SCALING_POLICY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/config.h"
#include "observability/journal.h"
#include "observability/metrics_cache.h"
#include "statemgr/state_manager.h"

namespace heron {
namespace tmaster {

/// \brief The TMaster-side auto-scaler: closes the metrics → placement
/// loop the paper leaves to "the fullness of time" (§VI: self-regulating
/// streaming systems that "adjust the topology configuration on the fly
/// based on the load").
///
/// Rides the monitor tick. Each completed MetricsCache window is judged
/// exactly once against two hot-signals:
///  - backpressure: the topology spent more than `backpressure_ratio` of
///    the window under cluster-wide backpressure (rollup duration deltas,
///    cross-checked against the live /backpressure/<container> markers);
///  - skew: within some component, max/mean per-task processed delta
///    exceeds `skew_threshold` (one instance is the straggler).
///
/// A window with any signal extends the hot streak; a healthy window
/// resets it (hysteresis). After `hot_windows` consecutive hot windows —
/// and outside the post-action `cooldown_ms` quiet period — the engine
/// picks the bottleneck component (the skewed one, else the busiest
/// scalable component by processed delta), computes the new parallelism
/// (`ceil(old × factor)`, capped at `max_parallelism`), publishes a
/// decision record under /topologies/<t>/scaling/<seq>, and hands the
/// target to the executor callback — in LocalCluster, the exactly-once
/// repack rollout (checkpoint-abort → Repack → restart → replay).
///
/// The engine itself is deterministic: no RNG, no wall-clock reads beyond
/// the injected Clock, decisions keyed to window start times — so two
/// step-mode universes fed identical metrics fire identically.
///
/// Thread-safety: driven from the monitor reactor; introspection entry
/// points lock.
class ScalingPolicyEngine {
 public:
  struct Options {
    std::string topology;
    bool enabled = false;
    double backpressure_ratio = 0.25;     ///< kScalingBackpressureRatio.
    double skew_threshold = 0;            ///< kScalingSkewThreshold; 0 = off.
    int hot_windows = 3;                  ///< kScalingHotWindows.
    int64_t cooldown_ms = 10000;          ///< kScalingCooldownMs.
    double factor = 2.0;                  ///< kScalingFactor.
    int max_parallelism = 64;             ///< kScalingMaxParallelism.
    /// Control-plane flight recorder: every fired decision lands here
    /// (detail = component, arg0 = from, arg1 = to). nullptr = dark.
    observability::EventJournal* journal = nullptr;

    static Options FromConfig(const std::string& topology,
                              const Config& config);
  };

  /// One fired decision, as published to the state tree.
  struct Decision {
    uint64_t seq = 0;
    std::string component;
    int from = 0;
    int to = 0;
    std::string reason;  ///< "backpressure" | "skew".
    int64_t decided_at_nanos = 0;
    std::string outcome;  ///< "applied" or the executor's error string.

    std::string ToJson() const;
  };

  /// Applies a decision: repack `component` to `new_parallelism` and roll
  /// the plan through the restart path. Invoked with no engine lock held.
  using ExecuteFn = std::function<Status(const ComponentId& component,
                                         int new_parallelism)>;

  ScalingPolicyEngine(const Options& options,
                      observability::MetricsCache* cache,
                      statemgr::IStateManager* state, const Clock* clock);

  void SetExecute(ExecuteFn execute);

  /// Components the engine may scale (the bolts — spout parallelism is an
  /// ingest-rate decision, not a relief valve) with their task → component
  /// attribution for the skew detector. Refreshed on every plan install.
  void SetScalableComponents(std::vector<ComponentId> components,
                             std::map<TaskId, ComponentId> task_component);

  /// One monitor round. Judges at most one new metrics window; returns
  /// true when a scaling decision fired (and was executed) this tick.
  bool Tick();

  // -- Introspection (tests / snapshot). --
  uint64_t decisions_fired() const;
  int hot_streak() const;
  std::vector<Decision> history() const;
  const Options& options() const { return options_; }

 private:
  struct Verdict {
    bool hot = false;
    std::string reason;
    ComponentId skewed;  ///< Set when the skew detector fired.
  };

  Verdict JudgeWindowLocked(const observability::ComponentRollup& topo);
  /// The busiest scalable component by processed delta (skew target wins
  /// when set). Empty when nothing is scalable.
  ComponentId PickTargetLocked(
      const std::vector<observability::ComponentRollup>& rollups,
      const ComponentId& skewed, int* current_parallelism) const;
  Status PublishLocked(const Decision& decision);

  const Options options_;
  observability::MetricsCache* cache_;
  statemgr::IStateManager* state_;
  const Clock* clock_;

  mutable std::mutex mutex_;
  ExecuteFn execute_;
  std::vector<ComponentId> scalable_;
  std::map<TaskId, ComponentId> task_component_;
  int64_t last_window_nanos_ = -1;   ///< Newest window already judged.
  int hot_streak_ = 0;
  int64_t last_action_nanos_ = 0;
  uint64_t next_seq_ = 1;
  std::vector<Decision> history_;
};

}  // namespace tmaster
}  // namespace heron

#endif  // HERON_TMASTER_SCALING_POLICY_ENGINE_H_
