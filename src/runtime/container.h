#ifndef HERON_RUNTIME_CONTAINER_H_
#define HERON_RUNTIME_CONTAINER_H_

#include <memory>
#include <vector>

#include "common/config.h"
#include "instance/instance.h"
#include "metrics/metrics_manager.h"
#include "packing/packing_plan.h"
#include "proto/physical_plan.h"
#include "runtime/event_loop.h"
#include "runtime/tasklet.h"
#include "smgr/stream_manager.h"

namespace heron {
namespace runtime {

/// \brief One running container: "the remaining containers each run a
/// Stream Manager, a Metrics Manager and a set of Heron Instances" (§II).
///
/// Owns the three process kinds, wires them to the topology transport,
/// and tears them down in dependency order. The Scheduler starts and
/// stops Containers through the launcher. The container alone decides what
/// drives each module's loop (Launch): an owned thread, a tasklet pool, or
/// nothing in step mode; the modules themselves do not know which.
///
/// The Metrics Manager's periodic collection runs on the container's own
/// housekeeping reactor (an EventLoop with a single periodic timer, cf.
/// kMetricsCollectIntervalMs) — the same kernel every other module loop
/// runs on. Stop() halts the housekeeping loop before tearing down the
/// instances whose registries it snapshots.
class Container {
 public:
  /// \param config  merged topology + cluster config, source of the SMGR
  ///        tuning knobs (§V-B) and the acking switch
  Container(const packing::ContainerPlan& plan,
            std::shared_ptr<const proto::PhysicalPlan> physical_plan,
            const Config& config, smgr::Transport* transport,
            const Clock* clock);
  ~Container();

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  /// Starts the SMGR first (instances need a routable container), then
  /// every instance, and registers all metric sources.
  Status Start();
  /// Step-mode Start: full wiring (SMGR, instances, housekeeping timers)
  /// but zero threads — the caller drives Step(). Deterministic under a
  /// SimClock; this is how the failure-recovery tests replay a kill.
  Status StartStepMode();
  /// One step-mode round: SMGR reactor, every instance reactor, then the
  /// housekeeping (metrics collection) reactor, each RunOnce.
  void Step();
  /// Stops instances first, then the SMGR. Idempotent.
  void Stop();
  /// Fault injection: hard-kills the container mid-stream. Reactors halt
  /// without their shutdown drains (caches, outboxes, parked envelopes die
  /// with the "process"), endpoints deregister, threads join. The survivor
  /// SMGRs see the dead endpoints as kNotFound and park traffic for them;
  /// the TMaster sees the heartbeats stop. Distinct from graceful Stop().
  void Fail();
  /// Marks the *next* Start as a recovered incarnation: its SMGR then
  /// broadcasts kStopBackpressure on registration so survivors release any
  /// throttle ref the dead predecessor held (see Options::announce_recovery).
  void MarkRecovering() { recovering_ = true; }

  /// Cooperative execution: every module loop this container starts (SMGR,
  /// instances, housekeeping) becomes a tasklet on `pool` instead of owning
  /// a thread. Must be set before Start; null (the default) keeps
  /// thread-per-instance. Ignored in step mode (zero threads either way).
  void set_tasklet_pool(TaskletPool* pool) { tasklet_pool_ = pool; }

  /// Attaches the container's span sink for sampled tuple-path tracing
  /// (shared by the SMGR and every instance). Must be set before Start;
  /// nullptr (the default) disables tracing for this container. The
  /// collector is owned by the caller (LocalCluster keeps it across
  /// restarts so a recovered incarnation appends to the same ring).
  void set_span_collector(observability::SpanCollector* collector) {
    span_collector_ = collector;
  }
  observability::SpanCollector* span_collector() const {
    return span_collector_;
  }

  /// Attaches the container's flight recorder (control-plane event ring,
  /// fed by the SMGR's backpressure protocol). Must be set before Start;
  /// nullptr (the default) leaves the journal dark. Owned by the caller
  /// (LocalCluster keeps it across restarts so a recovered incarnation
  /// appends to the same ring).
  void set_journal(observability::EventJournal* journal) {
    journal_ = journal;
  }
  observability::EventJournal* journal() const { return journal_; }

  /// Wires the checkpoint subsystem into every instance this container
  /// starts: the snapshot target, the checkpoint to restore on startup
  /// (0 = cold start) and the cluster incarnation epoch. Must be set
  /// before Start; nullptr state (the default) disables checkpointing.
  void set_checkpoint_options(statemgr::IStateManager* state,
                              uint64_t restore_checkpoint, int64_t epoch) {
    checkpoint_state_ = state;
    restore_checkpoint_ = restore_checkpoint;
    checkpoint_epoch_ = epoch;
  }

  ContainerId id() const { return plan_.id; }
  smgr::StreamManager* stream_manager() { return smgr_.get(); }
  metrics::MetricsManager* metrics_manager() { return &metrics_manager_; }
  const std::vector<std::unique_ptr<instance::HeronInstance>>& instances()
      const {
    return instances_;
  }

  /// Sums a counter across this container's instances. With `component`
  /// non-empty, only that component's instances contribute.
  uint64_t SumInstanceCounter(const std::string& name,
                              const std::string& component = "") const;

  /// Sums a gauge across this container's instances.
  int64_t SumInstanceGauge(const std::string& name) const;

  /// Reads a gauge from this container's Stream Manager (0 when absent).
  int64_t SmgrGauge(const std::string& name) const;

  /// Reads a counter from this container's Stream Manager (0 when absent).
  uint64_t SmgrCounter(const std::string& name) const;

 private:
  packing::ContainerPlan plan_;
  std::shared_ptr<const proto::PhysicalPlan> physical_plan_;
  Config config_;
  smgr::Transport* transport_;
  const Clock* clock_;

  std::unique_ptr<smgr::StreamManager> smgr_;
  std::vector<std::unique_ptr<instance::HeronInstance>> instances_;
  metrics::MetricsManager metrics_manager_;
  /// Registry for the housekeeping loop's own instrumentation, exported
  /// through the Metrics Manager like any other source.
  metrics::MetricsRegistry housekeeping_metrics_;
  /// The Metrics Manager's collection reactor.
  EventLoop housekeeping_;
  bool housekeeping_wired_ = false;
  TaskletPool* tasklet_pool_ = nullptr;
  bool started_ = false;
  bool step_mode_ = false;
  bool recovering_ = false;
  observability::SpanCollector* span_collector_ = nullptr;
  observability::EventJournal* journal_ = nullptr;
  statemgr::IStateManager* checkpoint_state_ = nullptr;
  uint64_t restore_checkpoint_ = 0;
  int64_t checkpoint_epoch_ = 0;

  /// Shared Start/StartStepMode body.
  Status StartInternal(bool step_mode);
  /// Hands `loop` to what drives it: the tasklet pool, an owned thread,
  /// or — in step mode — nobody (Step() steps it).
  void Launch(EventLoop* loop);
};

}  // namespace runtime
}  // namespace heron

#endif  // HERON_RUNTIME_CONTAINER_H_
