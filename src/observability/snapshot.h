#ifndef HERON_OBSERVABILITY_SNAPSHOT_H_
#define HERON_OBSERVABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "observability/journal.h"
#include "observability/metrics_cache.h"
#include "observability/trace.h"

namespace heron {
namespace observability {

/// \brief Tracker-style queryable dump of one running topology: the
/// physical plan, container liveness, the MetricsCache rollups, and the
/// sampled-trace latency breakdown — everything an external tool needs to
/// answer "where is this topology spending its time" without ssh'ing into
/// containers.
///
/// ToJson()/FromJson() round-trip exactly (field-for-field), which the
/// latency-breakdown figure asserts.
struct TopologySnapshot {
  struct TaskEntry {
    int task = -1;
    std::string component;
    int container = -1;

    bool operator==(const TaskEntry& o) const {
      return task == o.task && component == o.component &&
             container == o.container;
    }
  };

  /// Per-stage slice of the trace breakdown's stacked panel.
  struct StageLatency {
    std::string stage;        ///< TraceStageName().
    double mean_ms = 0;       ///< Mean attributed wall-clock per trace.

    bool operator==(const StageLatency& o) const {
      return stage == o.stage && mean_ms == o.mean_ms;
    }
  };

  struct TraceSummary {
    uint64_t traces = 0;          ///< Distinct trace ids observed.
    uint64_t complete = 0;        ///< Traces with emit + ack endpoints.
    uint64_t spans = 0;           ///< Spans retained across collectors.
    uint64_t dropped_spans = 0;   ///< Spans lost to ring wraparound.
    double mean_end_to_end_ms = 0;
    std::vector<StageLatency> stages;

    bool operator==(const TraceSummary& o) const {
      return traces == o.traces && complete == o.complete &&
             spans == o.spans && dropped_spans == o.dropped_spans &&
             mean_end_to_end_ms == o.mean_end_to_end_ms && stages == o.stages;
    }
  };

  /// Count of one flight-recorder event type across every ring.
  struct JournalTypeCount {
    std::string type;  ///< JournalEventTypeName().
    uint64_t count = 0;

    bool operator==(const JournalTypeCount& o) const {
      return type == o.type && count == o.count;
    }
  };

  /// Flight-recorder digest: ring totals plus retained-event counts by
  /// type (non-zero types only, in enum order).
  struct JournalSummary {
    uint64_t events = 0;    ///< Events retained across rings.
    uint64_t recorded = 0;  ///< Events ever recorded (incl. overwritten).
    uint64_t dropped = 0;   ///< Events lost to ring wraparound.
    std::vector<JournalTypeCount> by_type;

    bool operator==(const JournalSummary& o) const {
      return events == o.events && recorded == o.recorded &&
             dropped == o.dropped && by_type == o.by_type;
    }
  };

  /// Cooperative-scheduler profiler rollup (all zero outside cooperative
  /// execution or with the journal dark).
  struct SchedulerSummary {
    uint64_t workers = 0;
    uint64_t tasklets = 0;
    uint64_t slices = 0;          ///< Slices driven (tasklet counters).
    uint64_t overruns = 0;        ///< Steps that blew the step bound.
    double occupancy = 0;         ///< Worker busy / wall ratio.
    double busy_ms = 0;           ///< Summed worker busy wall-clock.
    double wall_ms = 0;           ///< Summed worker uptime.
    uint64_t slice_events = 0;    ///< Slices retained in the ring.
    uint64_t dropped_slices = 0;  ///< Slices lost to ring wraparound.

    bool operator==(const SchedulerSummary& o) const {
      return workers == o.workers && tasklets == o.tasklets &&
             slices == o.slices && overruns == o.overruns &&
             occupancy == o.occupancy && busy_ms == o.busy_ms &&
             wall_ms == o.wall_ms && slice_events == o.slice_events &&
             dropped_slices == o.dropped_slices;
    }
  };

  std::string topology;
  int64_t captured_at_nanos = 0;

  // Physical plan.
  int num_containers = 0;
  std::vector<TaskEntry> tasks;  ///< Ascending by task id.

  // Liveness.
  std::vector<int> dead_containers;  ///< Ascending.
  uint64_t restarts_total = 0;

  // MetricsCache rollups.
  ComponentRollup topology_rollup;
  std::vector<ComponentRollup> components;  ///< Sorted by component.

  // Sampled tuple-path tracing.
  TraceSummary trace;

  // Flight recorder + scheduler profiler.
  JournalSummary journal;
  SchedulerSummary scheduler;

  std::string ToJson() const;
  static Result<TopologySnapshot> FromJson(std::string_view text);
};

/// Folds a merged journal stream (LocalCluster::CollectJournal) plus ring
/// totals into the snapshot's digest form.
TopologySnapshot::JournalSummary SummarizeJournal(
    const std::vector<JournalEvent>& events, uint64_t recorded,
    uint64_t dropped);

/// Folds a trace breakdown into the snapshot's summary form (ms units,
/// named stages; stages that never fired are included with 0 so the
/// stacked panel is always six slices).
TopologySnapshot::TraceSummary SummarizeTraces(const TraceBreakdown& breakdown,
                                               uint64_t spans,
                                               uint64_t dropped_spans);

}  // namespace observability
}  // namespace heron

#endif  // HERON_OBSERVABILITY_SNAPSHOT_H_
