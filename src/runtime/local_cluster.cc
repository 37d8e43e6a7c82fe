#include "runtime/local_cluster.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "observability/trace_export.h"
#include "frameworks/sim_framework.h"
#include "smgr/stream_manager.h"

namespace heron {
namespace runtime {

namespace {

/// A mode's selection: the config key, then the environment override (how
/// CI lanes re-run the suite under another wire or engine), else
/// `fallback`.
std::string ModeFromConfigOrEnv(const Config& config, const char* key,
                                const char* env, const char* fallback) {
  std::string mode = config.GetStringOr(key, "");
  const char* env_mode = std::getenv(env);
  if (mode.empty() && env_mode != nullptr) mode = env_mode;
  return mode.empty() ? fallback : mode;
}

}  // namespace

LocalCluster::LocalCluster(Config cluster_config, const Clock* clock)
    : cluster_config_(std::move(cluster_config)),
      clock_(clock != nullptr ? clock : RealClock::Get()) {
  recovery_detect_ms_ = recovery_metrics_.GetHistogram("recovery.detect.ms");
  recovery_restore_ms_ = recovery_metrics_.GetHistogram("recovery.restore.ms");
  recovery_detect_last_ms_ =
      recovery_metrics_.GetGauge("recovery.detect.last.ms");
  recovery_restore_last_ms_ =
      recovery_metrics_.GetGauge("recovery.restore.last.ms");
  recovery_deaths_ = recovery_metrics_.GetCounter("recovery.deaths");
  recovery_restarts_ = recovery_metrics_.GetCounter("recovery.restarts");
  checkpoint_restores_ =
      recovery_metrics_.GetCounter("recovery.checkpoint.restores");
}

LocalCluster::~LocalCluster() {
  if (running()) Kill().ok();
}

Status LocalCluster::BuildAndInstallPhysicalPlan(
    const packing::PackingPlan& plan) {
  HERON_ASSIGN_OR_RETURN(auto physical,
                         proto::PhysicalPlan::Build(topology_, plan));
  // Keep the metrics cache's (and scaling engine's) task → component
  // attribution in lockstep with the plan (scaling changes it).
  std::map<TaskId, ComponentId> task_component;
  for (const TaskId task : physical->all_tasks()) {
    const api::ComponentDef* def = physical->ComponentOfTask(task);
    if (def != nullptr) task_component[task] = def->id;
  }
  if (scaling_engine_ != nullptr) {
    // Only bolts are scalable: backpressure throttles the spouts, so
    // growing spout parallelism feeds the fire instead of relieving it.
    std::vector<ComponentId> bolts;
    for (const api::ComponentDef& def : topology_->components()) {
      if (def.kind == api::ComponentKind::kBolt) bolts.push_back(def.id);
    }
    scaling_engine_->SetScalableComponents(std::move(bolts), task_component);
  }
  if (metrics_cache_ != nullptr) {
    metrics_cache_->SetTopology(topology_->name(), std::move(task_component));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  physical_plan_ = physical;
  return Status::OK();
}

Status LocalCluster::Submit(std::shared_ptr<const api::Topology> topology) {
  if (topology == nullptr) {
    return Status::InvalidArgument("null topology");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) {
      return Status::FailedPrecondition(
          "local cluster already runs a topology");
    }
  }
  // The State Manager backend named by heron.statemgr.kind (§IV-C), built
  // here rather than in the constructor so a bad kind fails the submit.
  if (state_ == nullptr) {
    HERON_ASSIGN_OR_RETURN(state_,
                           statemgr::CreateStateManager(cluster_config_));
  }
  topology_ = topology;
  merged_config_ = cluster_config_.MergedWith(topology->config());
  step_mode_ = merged_config_.GetBoolOr(config_keys::kClusterStepMode, false);

  // Wire transport selection, before any container registers an endpoint
  // (default in-process). Step mode pumps wire fabrics inline so
  // single-stepped universes stay deterministic regardless of the wire.
  HERON_ASSIGN_OR_RETURN(
      const smgr::Transport::Mode transport_kind,
      smgr::Transport::ParseMode(ModeFromConfigOrEnv(
          merged_config_, config_keys::kTransportMode, "HERON_TRANSPORT_MODE",
          "in-process")));
  smgr::Transport::Options transport_options;
  transport_options.mode = transport_kind;
  transport_options.inline_pump = step_mode_;
  HERON_RETURN_NOT_OK(transport_.Configure(transport_options));

  // Execution-mode selection, same precedence as the transport, default
  // thread-per-instance. Step mode wins over cooperative — a step-mode
  // universe is threadless by definition, so no pool is built.
  const std::string execution_mode =
      ModeFromConfigOrEnv(merged_config_, config_keys::kExecutionMode,
                          "HERON_EXECUTION_MODE", "thread");
  if (execution_mode != "thread" && execution_mode != "cooperative") {
    return Status::InvalidArgument("unknown execution mode: '" +
                                   execution_mode +
                                   "' (thread | cooperative)");
  }
  // The cooperative pool's sizing, checked in every mode so a bad value
  // fails alike in every lane: a negative worker count would wrap to a
  // huge pool, and a slice target outside (0, 1 s] would overflow the step
  // bound (8 targets) or the cost clamp's burst.
  const int64_t workers =
      merged_config_.GetIntOr(config_keys::kExecutionWorkers, 0);
  if (workers < 0) {
    return Status::InvalidArgument(std::string(config_keys::kExecutionWorkers) +
                                   " must be >= 0, got " +
                                   std::to_string(workers));
  }
  const int64_t slice_target_nanos =
      merged_config_.GetIntOr(config_keys::kExecutionSliceNanos,
                              TaskletOptions().target_slice_nanos);
  if (slice_target_nanos <= 0 || slice_target_nanos > 1000000000) {
    return Status::InvalidArgument(
        std::string(config_keys::kExecutionSliceNanos) +
        " must lie in (0, 1e9], got " + std::to_string(slice_target_nanos));
  }

  // Flight recorder + scheduler profiler: always-on by default (the rings
  // are wait-free and control-plane events are rare); capacity 0 turns
  // the whole layer dark — no rings, no slice accounting, no per-pass
  // profiling. Allocated before the pool so workers get their slice ring,
  // which keeps the newest 64K progressing drives.
  journal_ring_capacity_ = static_cast<size_t>(
      merged_config_.GetIntOr(config_keys::kJournalRingCapacity, 8192));
  control_journal_.reset();
  slice_ring_.reset();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings_.clear();
  }
  if (journal_ring_capacity_ > 0) {
    control_journal_ = std::make_unique<observability::EventJournal>(
        journal_ring_capacity_);
    slice_ring_ = std::make_unique<observability::SliceRing>(1 << 16);
  }

  tasklet_pool_.reset();
  if (execution_mode == "cooperative" && !step_mode_) {
    TaskletPool::Options pool_options;
    pool_options.slice_ring = slice_ring_.get();
    pool_options.workers = static_cast<size_t>(workers);
    HERON_ASSIGN_OR_RETURN(
        pool_options.idle_policy,
        ParseIdlePolicy(merged_config_.GetStringOr(
            config_keys::kExecutionIdlePolicy, "condvar-park")));
    pool_options.tasklet.target_slice_nanos = slice_target_nanos;
    tasklet_pool_ = std::make_unique<TaskletPool>(pool_options, clock_);
    tasklet_pool_->Start();
  }

  // 1. Resource Manager: "first determines how many containers should be
  //    allocated for the topology" (§II).
  HERON_ASSIGN_OR_RETURN(
      packing_,
      packing::PackingRegistry::Global()->CreateFromConfig(merged_config_));
  HERON_RETURN_NOT_OK(packing_->Initialize(merged_config_, topology_));
  HERON_ASSIGN_OR_RETURN(packing::PackingPlan plan, packing_->Pack());

  // 2. Scheduler stack for heron.scheduler.kind (may build a simulated
  //    framework substrate), so the State Manager can record its URL.
  HERON_RETURN_NOT_OK(BuildScheduler(plan));

  // 3. State Manager: register the topology and its metadata (§IV-C).
  HERON_RETURN_NOT_OK(
      statemgr::RegisterTopology(state_.get(), topology->name()));
  HERON_RETURN_NOT_OK(statemgr::SetSchedulerLocation(
      state_.get(), topology->name(),
      framework_ != nullptr ? framework_->Url() : "local://localhost"));

  // 4. TMaster in (alongside) container 0, with the heartbeat monitor
  //    parameters (§IV-B failure detection) and the event route into the
  //    Scheduler.
  tmaster::TopologyMaster::Options tm_options;
  tm_options.topology = topology->name();
  tmaster_ = std::make_unique<tmaster::TopologyMaster>(
      tm_options, state_.get(), clock_);
  HERON_RETURN_NOT_OK(tmaster_->Start());
  HERON_RETURN_NOT_OK(tmaster_->PublishPackingPlan(plan));

  const int64_t monitor_interval_ms =
      merged_config_.GetIntOr(config_keys::kSchedulerMonitorIntervalMs, 0);
  const int miss_limit = static_cast<int>(
      merged_config_.GetIntOr(config_keys::kSchedulerMonitorMissLimit, 3));
  if (monitor_interval_ms > 0) {
    tmaster_->SetMonitorParams(monitor_interval_ms, miss_limit);
    tmaster_->SetContainerEventCallback(
        [this](const tmaster::TopologyMaster::ContainerEvent& event) {
          OnContainerEvent(event);
        });
    EventLoop::Options monitor_options;
    monitor_options.name = "monitor";
    monitor_ = std::make_unique<EventLoop>(monitor_options, clock_);
    monitor_->AddPeriodic(monitor_interval_ms * 1000000,
                          [this] { MonitorTick(); });
  }

  // 4a. Checkpointing: the coordinator rides the TMaster's monitor tick
  //     (periodic triggers + completion polling). Enabled by an interval
  //     or by exactly-once mode (which tests drive with explicit
  //     TriggerCheckpoint calls even at interval 0).
  const int64_t checkpoint_interval_ms =
      merged_config_.GetIntOr(config_keys::kCheckpointIntervalMs, 0);
  const std::string checkpoint_mode = merged_config_.GetStringOr(
      config_keys::kCheckpointMode, "at-least-once");
  checkpoint_exactly_once_ = checkpoint_mode == "exactly-once";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_restore_ckpt_ = 0;
    checkpoint_epoch_ = 0;
  }
  if (checkpoint_interval_ms > 0 || checkpoint_exactly_once_) {
    tmaster::CheckpointCoordinator::Options ckpt_options;
    ckpt_options.topology = topology->name();
    ckpt_options.interval_ms = checkpoint_interval_ms;
    ckpt_options.journal = control_journal_.get();
    checkpoint_coordinator_ = std::make_unique<tmaster::CheckpointCoordinator>(
        ckpt_options, state_.get(), &transport_, clock_);
  } else {
    checkpoint_coordinator_.reset();
  }

  // 4b. Observability: the TMaster's metrics cache — "the gateway for the
  //     topology metrics" (§II) — which every container's Metrics Manager
  //     flushes into (the AddSink in StartContainer is the TMaster's
  //     "subscription" to that container), publishing windowed rollups to
  //     the state tree; and the sampled tuple-path tracing knobs whose
  //     per-container span rings StartContainer allocates.
  observability::MetricsCache::Options cache_options;
  cache_options.window_nanos =
      merged_config_.GetIntOr(config_keys::kMetricsCacheWindowSec, 1) *
      1'000'000'000;
  metrics_cache_ = std::make_shared<observability::MetricsCache>(cache_options);
  metrics_cache_->SetPublishTarget(state_.get());
  trace_sample_inverse_ =
      merged_config_.GetIntOr(config_keys::kTraceSampleInverse, 0);
  trace_ring_capacity_ = static_cast<size_t>(
      merged_config_.GetIntOr(config_keys::kTraceRingCapacity, 1 << 16));

  // 4c. Auto-scaling: the policy engine rides the monitor tick, judging
  //     each completed metrics-cache window and driving the exactly-once
  //     repack rollout when a component runs sustained-hot.
  tmaster::ScalingPolicyEngine::Options scaling_options =
      tmaster::ScalingPolicyEngine::Options::FromConfig(topology->name(),
                                                        merged_config_);
  scaling_options.journal = control_journal_.get();
  if (scaling_options.enabled) {
    scaling_engine_ = std::make_unique<tmaster::ScalingPolicyEngine>(
        scaling_options, metrics_cache_.get(), state_.get(), clock_);
    scaling_engine_->SetExecute(
        [this](const ComponentId& component, int new_parallelism) {
          return ScaleWithRollback(component, new_parallelism);
        });
  } else {
    scaling_engine_.reset();
  }

  // 5. Physical plan, then Scheduler starts every container.
  HERON_RETURN_NOT_OK(BuildAndInstallPhysicalPlan(plan));
  if (checkpoint_coordinator_ != nullptr) {
    checkpoint_coordinator_->SetPlan(physical_plan());
  }
  HERON_RETURN_NOT_OK(scheduler_->Initialize(merged_config_));
  HERON_RETURN_NOT_OK(scheduler_->OnSchedule(plan));

  // The monitor observes only after every container is expected: a slow
  // scheduler start must not read as a death.
  if (monitor_ != nullptr && !step_mode_) monitor_->Start();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = true;
  }
  HLOG(INFO) << "topology '" << topology->name() << "' running locally ("
             << plan.NumContainers() << " containers, "
             << plan.NumInstances() << " instances, scheduler "
             << scheduler_->Name() << ")";
  return Status::OK();
}

Status LocalCluster::BuildScheduler(const packing::PackingPlan& plan) {
  const std::string kind =
      merged_config_.GetStringOr(config_keys::kSchedulerKind, "local");
  framework_scheduler_ = nullptr;
  if (kind == "local") {
    sim_cluster_.reset();
    framework_.reset();
    scheduler_ = std::make_unique<scheduler::LocalScheduler>(this);
    return Status::OK();
  }
  HERON_ASSIGN_OR_RETURN(const frameworks::FrameworkKind framework_kind,
                         frameworks::ParseFrameworkKind(kind));
  // Simulated machine substrate: enough identical nodes for the plan plus
  // headroom, so a restarted container always finds a slot even while the
  // dead one's allocation lingers for a tick.
  sim_cluster_ = std::make_unique<frameworks::SimCluster>();
  sim_cluster_->AddNodes(plan.NumContainers() + 2,
                         plan.MaxContainerResource());
  framework_ = std::make_unique<frameworks::SimFramework>(framework_kind,
                                                          sim_cluster_.get());
  auto fs = std::make_unique<scheduler::FrameworkScheduler>(framework_.get(),
                                                            this);
  framework_scheduler_ = fs.get();
  scheduler_ = std::move(fs);
  return Status::OK();
}

Status LocalCluster::Kill() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return Status::FailedPrecondition("nothing running");
  }
  // Unified timeline export on demand: every run (tests, benches, CI
  // lanes) dumps its merged Perfetto timeline when HERON_TRACE_OUT names
  // a file. Before teardown so the tasklet names are still resolvable.
  const char* trace_out = std::getenv("HERON_TRACE_OUT");
  if (trace_out != nullptr && trace_out[0] != '\0') {
    const Status dumped = DumpTimeline(trace_out);
    if (dumped.ok()) {
      HLOG(INFO) << "timeline dumped to " << trace_out
                 << " (open at https://ui.perfetto.dev)";
    } else {
      HLOG(ERROR) << "timeline dump failed: " << dumped.ToString();
    }
  }
  // Monitor first — and only then flip running_: an in-flight recovery
  // finishes consistently (Join waits it out) and no new one can start, so
  // teardown below races nothing.
  if (monitor_ != nullptr) {
    monitor_->Stop();
    monitor_->Join();
    monitor_.reset();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return Status::FailedPrecondition("nothing running");
    running_ = false;
  }
  const Status st = scheduler_->OnKill({topology_->name()});
  tmaster_->Stop().ok();
  statemgr::UnregisterTopology(state_.get(), topology_->name()).ok();
  packing_->Close();
  // Cooperative pool last: every container (and thus every tasklet) is
  // stopped and retired by OnKill above, so the workers are idle.
  if (tasklet_pool_ != nullptr) {
    tasklet_pool_->Stop();
    tasklet_pool_.reset();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    failed_containers_.clear();
  }
  return st;
}

Status LocalCluster::Scale(const ComponentId& component,
                           int new_parallelism) {
  if (!running()) return Status::FailedPrecondition("nothing running");
  HERON_ASSIGN_OR_RETURN(packing::PackingPlan new_plan,
                         Repack(component, new_parallelism));
  // Survivors must restart onto the new physical plan (routing tables are
  // per-plan); capture them before the scheduler applies the diff.
  std::vector<ContainerId> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, _] : containers_) live.push_back(id);
  }
  return SwapPlan(new_plan, new_parallelism, "scale", live);
}

Status LocalCluster::ScaleWithRollback(const ComponentId& component,
                                       int new_parallelism) {
  if (!running()) return Status::FailedPrecondition("nothing running");
  if (checkpoint_coordinator_ == nullptr || !checkpoint_exactly_once_) {
    // Without exactly-once checkpointing there is no epoch to roll back
    // to; the plain scale path (at-least-once ack-replay) applies.
    return Scale(component, new_parallelism);
  }

  HLOG(WARNING) << "scaling '" << component << "' to " << new_parallelism
                << " via checkpoint rollback";
  HERON_ASSIGN_OR_RETURN(packing::PackingPlan new_plan,
                         Repack(component, new_parallelism));

  // Halt every live container — the global rollback contract: tuples in
  // flight past the checkpoint are of the doomed epoch and must be
  // discarded, not drained onto a plan that no longer routes them. Then
  // swap the plan and restart the halted incumbents on it (their instances
  // restore the checkpoint; repack-added containers start cold —
  // MaybeRestore tolerates tasks the checkpoint never knew) and the spouts
  // re-emit the post-checkpoint suffix onto the new routing tables.
  return RollBack(/*dead=*/-1, [&](const std::vector<ContainerId>& halted) {
    return SwapPlan(new_plan, new_parallelism, "scale-rollback", halted);
  });
}

Result<packing::PackingPlan> LocalCluster::Repack(const ComponentId& component,
                                                  int new_parallelism) {
  // TMaster coordinates the repack (§IV-A) and publishes the plan.
  HERON_ASSIGN_OR_RETURN(
      packing::PackingPlan new_plan,
      tmaster_->ScaleTopology(packing_.get(), {{component, new_parallelism}}));
  // The topology object must reflect the new parallelism so the physical
  // plan validates and instances get the right context.
  HERON_ASSIGN_OR_RETURN(api::Topology scaled,
                         topology_->WithParallelism(component,
                                                    new_parallelism));
  topology_ = std::make_shared<const api::Topology>(std::move(scaled));
  return new_plan;
}

Status LocalCluster::SwapPlan(const packing::PackingPlan& new_plan,
                              int new_parallelism, const char* why,
                              const std::vector<ContainerId>& restart) {
  const packing::PackingPlan old_plan = current_packing_plan();

  // Install the plan everywhere: physical plan (+ metrics cache and
  // scaling-engine attribution) and the coordinator's completion fence,
  // which also aborts any in-flight checkpoint: its task set just changed.
  HERON_RETURN_NOT_OK(BuildAndInstallPhysicalPlan(new_plan));
  if (control_journal_ != nullptr) {
    control_journal_->Record(observability::JournalEventType::kPlanSwap,
                             /*origin=*/-1, /*task=*/-1, clock_->NowNanos(),
                             /*arg0=*/new_plan.NumContainers(),
                             /*arg1=*/new_parallelism, why);
  }
  if (checkpoint_coordinator_ != nullptr) {
    checkpoint_coordinator_->SetPlan(physical_plan());
  }

  // Plan-change hygiene for removed containers that are *already dead*
  // (hard-killed, or halted by RollBack): the scheduler's stop finds
  // nothing to stop, so nothing else would ever stop expecting their
  // heartbeats or clear their recovery marker (a later same-id container
  // must not boot as a recovered incarnation). Throttle refs their SMGR
  // stranded on survivors mid-episode need no release here: every
  // survivor restarts below, and a stopping SMGR drops the refs its
  // remote initiators held.
  for (const auto& c : old_plan.containers()) {
    if (new_plan.FindContainer(c.id) != nullptr) continue;
    bool was_failed = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      was_failed = failed_containers_.erase(c.id) > 0;
    }
    if (was_failed) tmaster_->ForgetContainer(c.id).ok();
  }

  // Scheduler applies the container diff (§IV-B onUpdate): stops removed,
  // starts added (on the new plan). Then every container in `restart` the
  // repack kept comes back up on the new plan; one RollBack halted is
  // already down, so NotFound from the stop is an answer, not an error.
  HERON_RETURN_NOT_OK(scheduler_->OnUpdate({topology_->name(), new_plan}));
  for (const ContainerId id : restart) {
    const packing::ContainerPlan* c = new_plan.FindContainer(id);
    if (c == nullptr) continue;  // Removed by the repack.
    const Status stop = StopContainer(id);
    if (!stop.ok() && !stop.IsNotFound()) return stop;
    HERON_RETURN_NOT_OK(StartContainer(*c));
  }
  return Status::OK();
}

Status LocalCluster::RestartContainer(ContainerId id) {
  if (!running()) return Status::FailedPrecondition("nothing running");
  return scheduler_->OnRestart({topology_->name(), id});
}

Status LocalCluster::FailContainer(ContainerId id) {
  std::unique_ptr<Container> victim = TakeContainer(id, /*failed=*/true);
  if (victim == nullptr) {
    return Status::NotFound(StrFormat("container %d not live", id));
  }
  HLOG(WARNING) << "FAULT INJECTION: hard-killing container " << id;
  // Failure-state diagnostics: the dead container's flight-recorder tail
  // is the first thing an operator wants — what the control plane was
  // doing in the moments before the kill.
  if (journal_ring_capacity_ > 0) {
    std::vector<observability::JournalEvent> tail;
    if (observability::EventJournal* ring = journal(id)) {
      tail = ring->Snapshot();
    }
    constexpr size_t kTailEvents = 8;
    const size_t first =
        tail.size() > kTailEvents ? tail.size() - kTailEvents : 0;
    for (size_t i = first; i < tail.size(); ++i) {
      const observability::JournalEvent& e = tail[i];
      HLOG(WARNING) << "  journal[" << e.seq << "] "
                    << observability::JournalEventTypeName(e.type) << " at "
                    << e.at_nanos << " args " << e.arg0 << "," << e.arg1
                    << (e.detail.empty() ? "" : " " + e.detail);
    }
  }
  // Abrupt death: halt everything, drain nothing. The TMaster is NOT told —
  // detection is the heartbeat monitor's job, which is the point.
  victim->Fail();
  return Status::OK();
}

void LocalCluster::StepAll() {
  if (!step_mode_) return;
  std::vector<Container*> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live.reserve(containers_.size());
    for (const auto& [_, container] : containers_) {
      live.push_back(container.get());
    }
  }
  for (Container* container : live) container->Step();
}

void LocalCluster::MonitorTick() {
  if (!running()) return;
  if (tmaster_ != nullptr) {
    // CheckLiveness emits ContainerEvents through OnContainerEvent, which
    // routes deaths into the Scheduler synchronously — by the time this
    // returns, recovery (restart + re-register) has been driven as far as
    // the framework contract allows.
    tmaster_->CheckLiveness();
  }
  if (checkpoint_coordinator_ != nullptr && running()) {
    checkpoint_coordinator_->Tick(clock_->NowNanos());
  }
  if (scaling_engine_ != nullptr && running()) {
    // After liveness and checkpoint rounds: a scaling decision must see
    // the cluster's settled state, and its rollout reuses both paths.
    scaling_engine_->Tick();
  }
}

void LocalCluster::OnContainerEvent(
    const tmaster::TopologyMaster::ContainerEvent& event) {
  using Kind = tmaster::TopologyMaster::ContainerEvent::Kind;
  if (event.kind == Kind::kDead) {
    recovery_deaths_->Increment();
    recovery_detect_ms_->Record(
        static_cast<uint64_t>(std::max<int64_t>(event.latency_ms, 0)));
    recovery_detect_last_ms_->Set(event.latency_ms);
    if (control_journal_ != nullptr) {
      control_journal_->Record(
          observability::JournalEventType::kContainerDead,
          /*origin=*/event.container, /*task=*/-1, clock_->NowNanos(),
          /*arg0=*/event.latency_ms, /*arg1=*/0);
    }
    if (!running()) return;
    if (checkpoint_coordinator_ != nullptr && checkpoint_exactly_once_) {
      // Exactly-once mode: recovery is a global rollback to the latest
      // complete checkpoint, not per-container ack-replay.
      RestoreFromCheckpoint(event.container);
      return;
    }
    // Framework-contract routing (§IV-B): stateless schedulers lean on
    // the framework's auto-restart; stateful ones restart explicitly.
    const Status st =
        scheduler_->OnContainerDead(topology_->name(), event.container);
    if (!st.ok()) {
      HLOG(ERROR) << "recovery of container " << event.container
                  << " failed: " << st.ToString();
    }
    return;
  }
  // kRestored: heartbeats resumed from the replacement incarnation.
  recovery_restarts_->Increment();
  if (control_journal_ != nullptr) {
    control_journal_->Record(
        observability::JournalEventType::kContainerRestored,
        /*origin=*/event.container, /*task=*/-1, clock_->NowNanos(),
        /*arg0=*/event.latency_ms, /*arg1=*/0);
  }
  if (metrics_cache_ != nullptr) {
    metrics_cache_->NoteRestart(event.container);
  }
  recovery_metrics_
      .GetCounter(StrFormat("recovery.restarts.%d", event.container))
      ->Increment();
  recovery_restore_ms_->Record(
      static_cast<uint64_t>(std::max<int64_t>(event.latency_ms, 0)));
  recovery_restore_last_ms_->Set(event.latency_ms);
}

void LocalCluster::RestoreFromCheckpoint(ContainerId dead) {
  HLOG(WARNING) << "container " << dead << " died in exactly-once mode";
  // Halt every survivor. The rollback is global: tuples in flight past the
  // checkpoint — in outboxes, caches, channels — are of the failed epoch
  // and must be discarded, not drained.
  RollBack(dead, [&](const std::vector<ContainerId>& survivors) {
    // Restart the dead container through the framework contract, then the
    // survivors directly.
    const Status st = scheduler_->OnContainerDead(topology_->name(), dead);
    if (!st.ok()) {
      HLOG(ERROR) << "checkpoint recovery of container " << dead
                  << " failed: " << st.ToString();
    }
    const packing::PackingPlan plan = current_packing_plan();
    for (const ContainerId id : survivors) {
      const packing::ContainerPlan* c = plan.FindContainer(id);
      if (c == nullptr) continue;
      const Status restart = StartContainer(*c);
      if (!restart.ok()) {
        HLOG(ERROR) << "checkpoint recovery: restart of survivor " << id
                    << " failed: " << restart.ToString();
      }
    }
    return Status::OK();
  }).ok();
}

Status LocalCluster::RollBack(
    ContainerId dead,
    const std::function<Status(const std::vector<ContainerId>& halted)>&
        restart) {
  const uint64_t restore_id = checkpoint_coordinator_->latest_complete();
  checkpoint_coordinator_->AbortInFlight();
  HLOG(WARNING) << "rolling every container back to checkpoint "
                << restore_id;
  std::vector<ContainerId> halted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_restore_ckpt_ = restore_id;
    ++checkpoint_epoch_;
    for (const auto& [id, _] : containers_) halted.push_back(id);
  }
  if (control_journal_ != nullptr) {
    control_journal_->Record(
        observability::JournalEventType::kCheckpointRestore,
        /*origin=*/dead, /*task=*/-1, clock_->NowNanos(),
        /*arg0=*/static_cast<int64_t>(restore_id),
        /*arg1=*/dead < 0 ? static_cast<int64_t>(halted.size()) : 0);
  }
  for (const ContainerId id : halted) {
    std::unique_ptr<Container> victim = TakeContainer(id, /*failed=*/true);
    if (victim != nullptr) victim->Fail();
  }
  HERON_RETURN_NOT_OK(restart(halted));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_restore_ckpt_ = 0;
  }
  checkpoint_restores_->Increment();
  return Status::OK();
}

int64_t LocalCluster::checkpoint_epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checkpoint_epoch_;
}

Status LocalCluster::StartContainer(const packing::ContainerPlan& container) {
  std::shared_ptr<const proto::PhysicalPlan> plan = physical_plan();
  if (plan == nullptr) {
    return Status::FailedPrecondition("no physical plan installed");
  }
  auto live = std::make_unique<Container>(container, plan, merged_config_,
                                          &transport_, clock_);
  {
    // A container replacing a hard-killed one is a recovered incarnation:
    // its SMGR announces recovery on registration (clears any throttle ref
    // the dead predecessor stranded on survivors).
    std::lock_guard<std::mutex> lock(mutex_);
    const bool recovering = failed_containers_.erase(container.id) > 0;
    if (recovering) {
      live->MarkRecovering();
    }
    // Flight recorder: like the span ring, the journal is keyed by
    // container id and kept across restarts, so a recovered incarnation's
    // events land next to its predecessor's.
    Rings& rings = rings_[container.id];
    if (journal_ring_capacity_ > 0) {
      if (rings.journal == nullptr) {
        rings.journal = std::make_unique<observability::EventJournal>(
            journal_ring_capacity_);
      }
      live->set_journal(rings.journal.get());
      rings.journal->Record(
          observability::JournalEventType::kContainerStart,
          /*origin=*/container.id, /*task=*/-1, clock_->NowNanos(),
          /*arg0=*/static_cast<int64_t>(container.instances.size()),
          /*arg1=*/recovering ? 1 : 0);
    }
    // Checkpoint wiring: instances snapshot into (and restore from) the
    // cluster state tree. pending_restore_ckpt_ is nonzero only inside
    // RollBack's restart storm.
    if (checkpoint_coordinator_ != nullptr) {
      live->set_checkpoint_options(state_.get(), pending_restore_ckpt_,
                                   checkpoint_epoch_);
    }
    // Sampled tracing: hand the container its span ring. The ring is
    // keyed by container id and kept across restarts, so a recovered
    // incarnation's spans land next to its predecessor's.
    if (trace_sample_inverse_ > 0) {
      if (rings.spans == nullptr) {
        rings.spans = std::make_unique<observability::SpanCollector>(
            trace_ring_capacity_);
      }
      live->set_span_collector(rings.spans.get());
    }
  }
  // TMaster subscription: this container's collection rounds flush into
  // the topology-wide metrics cache alongside any test-attached sinks.
  if (metrics_cache_ != nullptr) {
    live->metrics_manager()->AddSink(metrics_cache_);
  }
  // Every collection round pulses the cluster-wide condvar, which is what
  // WaitForCounter parks on, heartbeats to the TMaster (this tick IS the
  // liveness signal the monitor watches), and forwards the container's
  // backpressure state on change — this is how local SMGR episodes reach
  // the topology status in the state tree (§IV-C). (The container outlives
  // its listener: Stop() halts the housekeeping loop before the container
  // is destroyed; Kill() stops every container before the TMaster.)
  Container* raw = live.get();
  const ContainerId container_id = container.id;
  auto last_bp = std::make_shared<int64_t>(0);
  live->metrics_manager()->AddCollectListener(
      [this, raw, container_id, last_bp] {
        const int64_t bp = raw->SmgrGauge("smgr.backpressure.active");
        if (bp != *last_bp) {
          *last_bp = bp;
          if (tmaster_ != nullptr) {
            tmaster_->ReportBackpressure(container_id, bp != 0).ok();
          }
        }
        if (tmaster_ != nullptr) {
          tmaster_->RecordHeartbeat(container_id).ok();
        }
        metrics_cv_.notify_all();
      });
  if (tmaster_ != nullptr) {
    // Seed liveness before the first heartbeat so a slow boot is not a
    // death (and a recovering container stays dead until it truly beats).
    tmaster_->ExpectContainer(container.id).ok();
  }
  if (tasklet_pool_ != nullptr) live->set_tasklet_pool(tasklet_pool_.get());
  HERON_RETURN_NOT_OK(step_mode_ ? live->StartStepMode() : live->Start());
  std::lock_guard<std::mutex> lock(mutex_);
  containers_[container.id] = std::move(live);
  return Status::OK();
}

Status LocalCluster::StopContainer(ContainerId id) {
  std::unique_ptr<Container> victim = TakeContainer(id, /*failed=*/false);
  if (victim == nullptr) {
    return Status::NotFound(StrFormat("container %d not live", id));
  }
  if (tmaster_ != nullptr) {
    // Graceful stop: an orderly departure must never look like a death.
    tmaster_->ForgetContainer(id).ok();
  }
  victim->Stop();
  return Status::OK();
}

std::unique_ptr<Container> LocalCluster::TakeContainer(ContainerId id,
                                                       bool failed) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = containers_.find(id);
  if (it == containers_.end()) return nullptr;
  std::unique_ptr<Container> taken = std::move(it->second);
  containers_.erase(it);
  if (failed) failed_containers_.insert(id);
  return taken;
}

int LocalCluster::failovers_handled() const {
  return framework_scheduler_ != nullptr
             ? framework_scheduler_->failovers_handled()
             : 0;
}

bool LocalCluster::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

std::shared_ptr<const proto::PhysicalPlan> LocalCluster::physical_plan()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return physical_plan_;
}

packing::PackingPlan LocalCluster::current_packing_plan() const {
  auto plan = physical_plan();
  return plan == nullptr ? packing::PackingPlan() : plan->packing();
}

Container* LocalCluster::GetContainer(ContainerId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = containers_.find(id);
  return it == containers_.end() ? nullptr : it->second.get();
}

int LocalCluster::num_live_containers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(containers_.size());
}

template <typename T, typename Read>
T LocalCluster::SumOverContainers(const Read& read) const {
  std::lock_guard<std::mutex> lock(mutex_);
  T total = 0;
  for (const auto& [_, container] : containers_) total += read(*container);
  return total;
}

uint64_t LocalCluster::SumCounter(const std::string& name,
                                  const std::string& component) const {
  return SumOverContainers<uint64_t>([&](const Container& c) {
    return c.SumInstanceCounter(name, component);
  });
}

int64_t LocalCluster::SumInstanceGauge(const std::string& name) const {
  return SumOverContainers<int64_t>(
      [&](const Container& c) { return c.SumInstanceGauge(name); });
}

int64_t LocalCluster::SumSmgrGauge(const std::string& name) const {
  return SumOverContainers<int64_t>(
      [&](const Container& c) { return c.SmgrGauge(name); });
}

uint64_t LocalCluster::SumSmgrCounter(const std::string& name) const {
  return SumOverContainers<uint64_t>(
      [&](const Container& c) { return c.SmgrCounter(name); });
}

Status LocalCluster::WaitForCounter(const std::string& name, uint64_t target,
                                    int64_t timeout_ms) {
  const int64_t deadline = clock_->NowNanos() + timeout_ms * 1000000;
  std::unique_lock<std::mutex> lock(metrics_cv_mutex_);
  while (SumCounter(name) < target) {
    const int64_t remaining = deadline - clock_->NowNanos();
    if (remaining <= 0) {
      return Status::Timeout(StrFormat(
          "counter '%s' reached %llu of %llu within %lld ms", name.c_str(),
          static_cast<unsigned long long>(SumCounter(name)),
          static_cast<unsigned long long>(target),
          static_cast<long long>(timeout_ms)));
    }
    // Park until the next metrics-collection pulse. The 50 ms cap bounds
    // the wait when no container is collecting (e.g. all stopped).
    metrics_cv_.wait_for(
        lock, std::chrono::nanoseconds(
                  std::min<int64_t>(remaining, 50000000)));
  }
  return Status::OK();
}

observability::SpanCollector* LocalCluster::span_collector(
    ContainerId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = rings_.find(id);
  return it == rings_.end() ? nullptr : it->second.spans.get();
}

std::vector<observability::Span> LocalCluster::CollectSpans() const {
  std::vector<observability::Span> merged;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [_, rings] : rings_) {
      if (rings.spans == nullptr) continue;
      auto spans = rings.spans->Snapshot();
      merged.insert(merged.end(), spans.begin(), spans.end());
    }
  }
  // Deterministic merge order: timestamp, then trace id, then stage. Under
  // a SimClock two runs of the same step schedule produce byte-identical
  // sequences (the determinism the two-universe test asserts).
  std::sort(merged.begin(), merged.end(),
            [](const observability::Span& a, const observability::Span& b) {
              if (a.at_nanos != b.at_nanos) return a.at_nanos < b.at_nanos;
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              return static_cast<uint8_t>(a.stage) <
                     static_cast<uint8_t>(b.stage);
            });
  return merged;
}

uint64_t LocalCluster::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [_, rings] : rings_) {
    if (rings.spans != nullptr) total += rings.spans->dropped();
  }
  return total;
}

template <typename Visit>
void LocalCluster::ForEachJournal(const Visit& visit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [_, rings] : rings_) {
    if (rings.journal != nullptr) visit(*rings.journal);
  }
  if (control_journal_ != nullptr) visit(*control_journal_);
}

observability::EventJournal* LocalCluster::journal(ContainerId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = rings_.find(id);
  return it == rings_.end() ? nullptr : it->second.journal.get();
}

std::vector<observability::JournalEvent> LocalCluster::CollectJournal()
    const {
  std::vector<observability::JournalEvent> merged;
  ForEachJournal([&](const observability::EventJournal& journal) {
    auto events = journal.Snapshot();
    merged.insert(merged.end(), events.begin(), events.end());
  });
  // Deterministic merge: the pre-order (rings_ is id-sorted, control
  // plane last) is fixed and the stable sort keys on (timestamp, origin,
  // seq) — under a SimClock two runs of the same step schedule produce
  // byte-identical streams (the two-universe journal test).
  std::stable_sort(
      merged.begin(), merged.end(),
      [](const observability::JournalEvent& a,
         const observability::JournalEvent& b) {
        if (a.at_nanos != b.at_nanos) return a.at_nanos < b.at_nanos;
        if (a.origin != b.origin) return a.origin < b.origin;
        return a.seq < b.seq;
      });
  return merged;
}

uint64_t LocalCluster::journal_dropped() const {
  uint64_t total = 0;
  ForEachJournal([&](const observability::EventJournal& journal) {
    total += journal.dropped();
  });
  return total;
}

std::string LocalCluster::BuildTimelineJson() const {
  observability::TimelineInput input;
  input.spans = CollectSpans();
  input.events = CollectJournal();
  if (slice_ring_ != nullptr) {
    input.slices = slice_ring_->Snapshot();
  }
  if (tasklet_pool_ != nullptr) {
    input.tasklet_names = tasklet_pool_->TaskletNames();
  }
  return observability::BuildChromeTrace(input);
}

Status LocalCluster::DumpTimeline(const std::string& path) const {
  return observability::WriteFile(path, BuildTimelineJson());
}

observability::TopologySnapshot LocalCluster::BuildSnapshot() const {
  observability::TopologySnapshot snap;
  snap.captured_at_nanos = clock_->NowNanos();
  if (topology_ != nullptr) snap.topology = topology_->name();

  // Physical plan.
  auto plan = physical_plan();
  if (plan != nullptr) {
    snap.num_containers = plan->num_containers();
    for (const TaskId task : plan->all_tasks()) {
      observability::TopologySnapshot::TaskEntry entry;
      entry.task = task;
      const api::ComponentDef* def = plan->ComponentOfTask(task);
      if (def != nullptr) entry.component = def->id;
      auto container = plan->ContainerOfTask(task);
      if (container.ok()) entry.container = *container;
      snap.tasks.push_back(std::move(entry));
    }
  }

  // Liveness.
  if (tmaster_ != nullptr) {
    auto dead = tmaster_->DeadContainers();
    if (dead.ok()) snap.dead_containers = *dead;
  }
  snap.restarts_total = recovery_restarts_->value();

  // MetricsCache rollups.
  if (metrics_cache_ != nullptr) {
    snap.topology_rollup = metrics_cache_->TopologyRollup();
    snap.components = metrics_cache_->ComponentRollups();
  }

  // Sampled tuple-path tracing.
  const std::vector<observability::Span> spans = CollectSpans();
  snap.trace = observability::SummarizeTraces(
      observability::BuildTraceBreakdown(spans), spans.size(),
      dropped_spans());

  // Flight recorder.
  uint64_t journal_recorded = 0;
  ForEachJournal([&](const observability::EventJournal& journal) {
    journal_recorded += journal.total_recorded();
  });
  snap.journal = observability::SummarizeJournal(
      CollectJournal(), journal_recorded, journal_dropped());

  // Cooperative-scheduler profiler.
  if (tasklet_pool_ != nullptr) {
    const TaskletPool::SchedulerStats stats =
        tasklet_pool_->CollectStats(clock_->NowNanos());
    snap.scheduler.workers = stats.workers;
    snap.scheduler.tasklets = stats.tasklets;
    snap.scheduler.slices = stats.slices;
    snap.scheduler.overruns = stats.overruns;
    snap.scheduler.occupancy = stats.occupancy();
    snap.scheduler.busy_ms = stats.busy_nanos / 1e6;
    snap.scheduler.wall_ms = stats.wall_nanos / 1e6;
  }
  if (slice_ring_ != nullptr) {
    const uint64_t recorded = slice_ring_->total_recorded();
    const uint64_t dropped = slice_ring_->dropped();
    snap.scheduler.slice_events = recorded - dropped;
    snap.scheduler.dropped_slices = dropped;
  }
  return snap;
}

uint64_t LocalCluster::CompleteLatencyQuantile(
    double q, const std::string& component) const {
  // Merge is approximate: take the max of per-instance quantiles weighted
  // by presence; adequate for shape-level assertions.
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t worst = 0;
  for (const auto& [_, container] : containers_) {
    for (const auto& instance : container->instances()) {
      if (!component.empty() && instance->component() != component) continue;
      auto* h = const_cast<instance::HeronInstance*>(instance.get())
                    ->metrics()
                    ->GetHistogram("instance.complete.latency.ns");
      if (h->count() > 0) {
        worst = std::max(worst, h->Quantile(q));
      }
    }
  }
  return worst;
}

}  // namespace runtime
}  // namespace heron
