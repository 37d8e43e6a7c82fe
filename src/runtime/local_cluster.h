#ifndef HERON_RUNTIME_LOCAL_CLUSTER_H_
#define HERON_RUNTIME_LOCAL_CLUSTER_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "frameworks/framework.h"
#include "observability/journal.h"
#include "observability/metrics_cache.h"
#include "observability/snapshot.h"
#include "observability/trace.h"
#include "packing/packing_registry.h"
#include "runtime/container.h"
#include "scheduler/framework_scheduler.h"
#include "scheduler/local_scheduler.h"
#include "statemgr/state_manager.h"
#include "tmaster/checkpoint_coordinator.h"
#include "tmaster/scaling_policy_engine.h"
#include "tmaster/tmaster.h"

namespace heron {
namespace runtime {

/// \brief Local-mode Heron: the full submission pipeline of §II on one
/// machine, with real Stream Managers, Heron Instances and Metrics
/// Managers on live threads.
///
/// Submit() runs exactly the paper's flow: "the Resource Manager first
/// determines how many containers should be allocated ... It then passes
/// this information to the Scheduler which is responsible for allocating
/// the required resources ... The Scheduler is also responsible for
/// starting all the Heron processes assigned to the container." The
/// TMaster runs alongside container 0 and owns the packing-plan record in
/// the State Manager.
///
/// One topology per LocalCluster (local mode is single-topology by
/// nature); clusters are independent, so tests run several side by side.
///
/// ## Failure detection & recovery (§IV-B)
/// With `heron.scheduler.monitor.interval.ms` > 0 the cluster runs a
/// monitor reactor: containers heartbeat through their metrics-collection
/// tick (RecordHeartbeat on the TMaster), and every monitor tick scans for
/// containers silent longer than interval × miss-limit. A death is
/// recorded in the state tree, measured into the recovery metrics, and
/// routed to the Scheduler's OnContainerDead — which either tells an
/// auto-restarting framework about the failure (Aurora/Marathon) or, in
/// stateful mode (YARN/Slurm), restarts the container itself. The chosen
/// path depends on `heron.scheduler.kind`: "local" (default) launches
/// containers directly; "aurora" / "marathon" / "yarn" / "slurm" deploy
/// through the corresponding simulated framework.
///
/// FailContainer() is the one fault: it hard-kills a live container
/// (threads halted, no shutdown drains — abrupt process death). The
/// cluster never injects faults itself; tests own their kill schedules.
///
/// With `heron.cluster.step.mode` the whole cluster — containers and
/// monitor — runs threadless: tests interleave StepAll() / MonitorTick()
/// with SimClock advances and replay the entire detect → restart →
/// re-register → drain → ack-replay cycle deterministically.
class LocalCluster final : public scheduler::IContainerLauncher {
 public:
  /// \param cluster_config  cluster-level defaults; the topology's own
  ///        config overrides per key
  /// \param clock  time source for every module (nullptr = real clock);
  ///        step-mode tests inject a SimClock here
  explicit LocalCluster(Config cluster_config = Config(),
                        const Clock* clock = nullptr);
  ~LocalCluster() override;

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Packs, registers, starts the TMaster and schedules every container.
  Status Submit(std::shared_ptr<const api::Topology> topology);

  /// Stops everything and unregisters the topology.
  Status Kill();

  /// Adjusts one component's parallelism on the running topology (§IV-A
  /// repack → §IV-B onUpdate). Containers restart on the new plan.
  Status Scale(const ComponentId& component, int new_parallelism);

  /// Exactly-once Scale: rolls the repacked plan out through the
  /// checkpoint-rollback machinery so no tuple trees are lost. Aborts the
  /// in-flight checkpoint, halts every container (post-checkpoint
  /// in-flight data is of the doomed epoch), swaps the plan, and restarts
  /// everything with the latest complete checkpoint as the restore
  /// target — new instances the repack added start cold, survivors
  /// restore their snapshots, and the spouts deterministically re-emit
  /// the post-checkpoint suffix onto the *new* routing tables. This is
  /// the ScalingPolicyEngine's executor. Falls back to plain Scale()
  /// when checkpointing is off or not exactly-once.
  Status ScaleWithRollback(const ComponentId& component, int new_parallelism);

  /// Restarts one container (all its Heron processes).
  Status RestartContainer(ContainerId id);

  /// Fault injection: hard-kills a live container mid-stream — all its
  /// threads halt with no shutdown drains, endpoints deregister, and its
  /// heartbeats stop. Recovery is *not* initiated here; the heartbeat
  /// monitor must detect the silence and route per the framework contract.
  Status FailContainer(ContainerId id);

  // -- Step mode (heron.cluster.step.mode) --------------------------------

  /// One step-mode round over every live container (SMGR, instances,
  /// housekeeping — each RunOnce). No-op outside step mode.
  void StepAll();

  /// One monitor round: the TMaster liveness scan — deaths route
  /// synchronously through OnContainerDead, so after this call returns
  /// the replacement containers (if any) are registered — then the
  /// checkpoint and scaling rounds.
  /// Runs on the monitor reactor in threaded mode; step-mode tests call it
  /// directly between clock advances.
  void MonitorTick();

  // -- IContainerLauncher (called by the Scheduler). --
  Status StartContainer(const packing::ContainerPlan& container) override;
  Status StopContainer(ContainerId id) override;

  // -- Introspection for tests, examples and benches. --
  bool running() const;
  std::shared_ptr<const proto::PhysicalPlan> physical_plan() const;
  packing::PackingPlan current_packing_plan() const;
  /// The State Manager named by `heron.statemgr.kind`; null before the
  /// first Submit, which builds it.
  statemgr::IStateManager* state_manager() { return state_.get(); }
  smgr::Transport* transport() { return &transport_; }
  tmaster::TopologyMaster* tmaster() { return tmaster_.get(); }
  /// Null unless checkpointing is enabled (heron.checkpoint.interval.ms
  /// > 0 or heron.checkpoint.mode == "exactly-once").
  tmaster::CheckpointCoordinator* checkpoint_coordinator() {
    return checkpoint_coordinator_.get();
  }
  /// Null unless auto-scaling is enabled (heron.scaling.enabled).
  tmaster::ScalingPolicyEngine* scaling_engine() {
    return scaling_engine_.get();
  }
  /// Test hook: triggers a checkpoint immediately (threaded or step
  /// mode); returns its id, 0 when checkpointing is off or one is
  /// already in flight.
  uint64_t TriggerCheckpoint() {
    return checkpoint_coordinator_ != nullptr
               ? checkpoint_coordinator_->TriggerNow()
               : 0;
  }
  /// Incarnation counter: bumped on every checkpoint-restore recovery.
  int64_t checkpoint_epoch() const;
  Container* GetContainer(ContainerId id);
  int num_live_containers() const;

  /// Recovery observability: `recovery.detect.ms` / `recovery.restore.ms`
  /// histograms (+ `.last` gauges), `recovery.deaths` / `recovery.restarts`
  /// counters (incl. per-container `recovery.restarts.<id>`), and
  /// `recovery.checkpoint.restores`.
  metrics::MetricsRegistry* recovery_metrics() { return &recovery_metrics_; }
  /// Stateful-scheduler recoveries (0 for local / auto-restart kinds).
  int failovers_handled() const;

  /// Sums an instance counter across every live container. With
  /// `component` non-empty, only that component's instances contribute.
  uint64_t SumCounter(const std::string& name,
                      const std::string& component = "") const;
  /// Sums an instance gauge across every live container.
  int64_t SumInstanceGauge(const std::string& name) const;
  /// Sums an SMGR gauge across every live container.
  int64_t SumSmgrGauge(const std::string& name) const;
  /// Sums an SMGR counter across every live container.
  uint64_t SumSmgrCounter(const std::string& name) const;
  /// Blocks until SumCounter(name) >= target or the deadline passes.
  /// Sleeps on a condition variable notified by every container's metrics
  /// collection round (no fixed-interval polling); a bounded wait cap
  /// guards against containers that stop collecting.
  Status WaitForCounter(const std::string& name, uint64_t target,
                        int64_t timeout_ms);
  /// Aggregated end-to-end (spout complete) latency quantile in nanos.
  /// Max-merged complete-latency quantile across spout instances. With
  /// `component` non-empty, only that component's instances contribute —
  /// a topology with a side branch (e.g. a benchmark's background-load
  /// spout) would otherwise have the branch's window sojourn drown the
  /// measured path in the max-merge.
  uint64_t CompleteLatencyQuantile(double q,
                                   const std::string& component = "") const;

  // -- Observability (tracing + TMaster metrics cache + snapshot) ---------

  /// The TMaster's metrics cache (every container's Metrics Manager
  /// flushes into it); null until Submit.
  observability::MetricsCache* metrics_cache() { return metrics_cache_.get(); }

  /// The span sink of `id`'s container; null when tracing is disabled
  /// (heron.observability.trace.sample.inverse == 0) or the container
  /// never started. Collectors survive container restarts: the recovered
  /// incarnation appends to the predecessor's ring.
  observability::SpanCollector* span_collector(ContainerId id) const;

  /// Snapshot of every container's retained spans, merged and ordered by
  /// timestamp (deterministic under SimClock: ties break on trace id,
  /// then stage).
  std::vector<observability::Span> CollectSpans() const;

  /// Spans lost to ring wraparound, summed across containers.
  uint64_t dropped_spans() const;

  /// Builds the queryable topology dump: physical plan, liveness,
  /// MetricsCache rollups, the sampled-trace breakdown, the flight
  /// recorder digest and the scheduler-profiler rollup. Callable while
  /// the topology runs or after its containers stopped (the collectors and
  /// cache outlive them).
  observability::TopologySnapshot BuildSnapshot() const;

  // -- Flight recorder + scheduler profiler (always-on) --------------------

  /// The flight-recorder ring of `id`'s container (SMGR backpressure
  /// protocol events); null when the journal is dark
  /// (heron.observability.journal.ring.capacity == 0) or the container
  /// never started. Rings survive container restarts, like span rings.
  observability::EventJournal* journal(ContainerId id) const;

  /// The control-plane ring (TMaster liveness, checkpoint coordinator,
  /// scaling engine, plan swaps); null when the journal is dark or before
  /// Submit.
  observability::EventJournal* control_journal() const {
    return control_journal_.get();
  }

  /// Snapshot of every ring (containers + control plane), merged into one
  /// stream ordered by (timestamp, origin, sequence) — deterministic under
  /// SimClock, which is what the two-universe journal test asserts.
  std::vector<observability::JournalEvent> CollectJournal() const;

  /// Events lost to ring wraparound, summed across every ring.
  uint64_t journal_dropped() const;

  /// The unified timeline: tuple-path spans, flight-recorder events and
  /// scheduler slices merged into one Chrome trace_event / Perfetto JSON
  /// document (one track per container, worker and task; instant events
  /// for control-plane transitions). Load it at chrome://tracing or
  /// https://ui.perfetto.dev.
  std::string BuildTimelineJson() const;

  /// Writes BuildTimelineJson() to `path`. Kill() calls this
  /// automatically when HERON_TRACE_OUT names a file.
  Status DumpTimeline(const std::string& path) const;

 private:
  Status BuildAndInstallPhysicalPlan(const packing::PackingPlan& plan);
  /// Builds the scheduler stack for `heron.scheduler.kind` (local direct
  /// launch, or a simulated framework + FrameworkScheduler).
  Status BuildScheduler(const packing::PackingPlan& plan);
  /// TMaster repack of `component` to `new_parallelism`; the topology
  /// object follows. Returns the new packing plan (not yet installed).
  Result<packing::PackingPlan> Repack(const ComponentId& component,
                                      int new_parallelism);
  /// The plan swap both scale paths share: installs `new_plan` (journaled
  /// as a kPlanSwap tagged `why`), forgets removed containers that are
  /// already dead, applies the diff through the scheduler, then restarts
  /// every container in `restart` that the new plan kept.
  Status SwapPlan(const packing::PackingPlan& new_plan, int new_parallelism,
                  const char* why, const std::vector<ContainerId>& restart);
  /// TMaster liveness transition: metrics + routing to the Scheduler.
  void OnContainerEvent(const tmaster::TopologyMaster::ContainerEvent& event);
  /// Exactly-once recovery: global rollback to the latest complete
  /// checkpoint. Halts every survivor (their post-checkpoint in-flight
  /// data must die), restarts the dead container through the Scheduler's
  /// framework contract, then restarts the survivors; every instance
  /// restores its snapshot on startup and the spouts deterministically
  /// re-emit the post-checkpoint suffix.
  void RestoreFromCheckpoint(ContainerId dead);
  /// The global rollback both ScaleWithRollback and RestoreFromCheckpoint
  /// run: aborts the in-flight checkpoint (its task set is about to change,
  /// or a dead container can never report into it), picks the latest
  /// complete one as the restore target (0 = cold restart) and freezes a
  /// new checkpoint epoch restoring it, journals the restore, halts every
  /// live container into failed_containers_ (so each replacement registers
  /// as a recovered incarnation), then calls `restart` with the halted ids;
  /// StartContainer hands the restore id to every container started inside
  /// it. `dead` is the container whose death triggered the rollback, -1 for
  /// a repack. Counts the restore once `restart` succeeds.
  Status RollBack(
      ContainerId dead,
      const std::function<Status(const std::vector<ContainerId>& halted)>&
          restart);
  /// Takes `id` out of containers_ for a stop or a kill; with `failed`, its
  /// replacement starts as a recovered incarnation. Null when not live.
  std::unique_ptr<Container> TakeContainer(ContainerId id, bool failed);
  /// Sums `read(container)` over every live container.
  template <typename T, typename Read>
  T SumOverContainers(const Read& read) const;
  /// Calls `visit` on every journal ring: the containers' in id order,
  /// then the control plane's.
  template <typename Visit>
  void ForEachJournal(const Visit& visit) const;

  Config cluster_config_;
  Config merged_config_;

  std::unique_ptr<statemgr::IStateManager> state_;
  smgr::Transport transport_;
  const Clock* clock_;

  std::shared_ptr<const api::Topology> topology_;
  std::unique_ptr<packing::IPacking> packing_;
  std::unique_ptr<tmaster::TopologyMaster> tmaster_;
  /// Non-null while checkpointing is enabled for the running topology.
  std::unique_ptr<tmaster::CheckpointCoordinator> checkpoint_coordinator_;
  /// Non-null while auto-scaling is enabled; rides the monitor tick after
  /// liveness and checkpoint rounds.
  std::unique_ptr<tmaster::ScalingPolicyEngine> scaling_engine_;
  /// heron.checkpoint.mode == "exactly-once": container death triggers
  /// the global checkpoint rollback instead of ack-replay recovery.
  bool checkpoint_exactly_once_ = false;
  /// Simulated machine substrate + scheduling framework (framework kinds
  /// only; null for "local").
  std::unique_ptr<frameworks::SimCluster> sim_cluster_;
  std::unique_ptr<frameworks::ISchedulingFramework> framework_;
  std::unique_ptr<scheduler::IScheduler> scheduler_;
  /// Downcast view of scheduler_ when it is a FrameworkScheduler.
  scheduler::FrameworkScheduler* framework_scheduler_ = nullptr;

  /// The heartbeat monitor reactor (null when monitoring is disabled).
  std::unique_ptr<EventLoop> monitor_;
  bool step_mode_ = false;
  /// Cooperative execution engine (heron.execution.mode=cooperative):
  /// created at Submit, handed to every container it starts (including
  /// restarts and repacks), stopped at Kill. Null in thread/step mode.
  std::unique_ptr<TaskletPool> tasklet_pool_;

  // Recovery observability.
  metrics::MetricsRegistry recovery_metrics_;
  metrics::Histogram* recovery_detect_ms_ = nullptr;
  metrics::Histogram* recovery_restore_ms_ = nullptr;
  metrics::Gauge* recovery_detect_last_ms_ = nullptr;
  metrics::Gauge* recovery_restore_last_ms_ = nullptr;
  metrics::Counter* recovery_deaths_ = nullptr;
  metrics::Counter* recovery_restarts_ = nullptr;
  /// Checkpoint-restore recoveries completed (exactly-once mode).
  metrics::Counter* checkpoint_restores_ = nullptr;

  /// TMaster metrics cache; created at Submit, AddSink'ed to every
  /// container's Metrics Manager (shared_ptr because MetricsManager owns
  /// sinks by shared_ptr).
  std::shared_ptr<observability::MetricsCache> metrics_cache_;
  /// One container's observability rings: its span ring (null unless
  /// tracing is enabled) and its flight-recorder ring (null while the
  /// journal is dark).
  struct Rings {
    std::unique_ptr<observability::SpanCollector> spans;
    std::unique_ptr<observability::EventJournal> journal;
  };
  /// Keyed by container id so a restarted incarnation appends to its
  /// predecessor's rings. Guarded by mutex_ (the map; the rings themselves
  /// are wait-free).
  std::map<ContainerId, Rings> rings_;
  int64_t trace_sample_inverse_ = 0;
  size_t trace_ring_capacity_ = 1 << 16;

  /// Control-plane ring: liveness transitions, checkpoint lifecycle,
  /// scaling decisions, plan swaps. Created at Submit.
  std::unique_ptr<observability::EventJournal> control_journal_;
  /// Cooperative-scheduler slice ring, handed to the TaskletPool. Outlives
  /// the pool so the timeline can be exported after Kill.
  std::unique_ptr<observability::SliceRing> slice_ring_;
  size_t journal_ring_capacity_ = 0;

  mutable std::mutex mutex_;
  std::shared_ptr<const proto::PhysicalPlan> physical_plan_;
  std::map<ContainerId, std::unique_ptr<Container>> containers_;
  /// Containers hard-killed and not yet restarted: their replacement
  /// starts as a recovered incarnation (Container::MarkRecovering).
  std::set<ContainerId> failed_containers_;
  bool running_ = false;
  /// Checkpoint id the next StartContainer hands to its instances for
  /// startup restore (set only inside RollBack), and the
  /// cluster incarnation epoch. Guarded by mutex_.
  uint64_t pending_restore_ckpt_ = 0;
  int64_t checkpoint_epoch_ = 0;

  /// Signalled by each container's metrics-collection round; WaitForCounter
  /// parks here instead of sleep-polling.
  std::mutex metrics_cv_mutex_;
  std::condition_variable metrics_cv_;
};

}  // namespace runtime
}  // namespace heron

#endif  // HERON_RUNTIME_LOCAL_CLUSTER_H_
