#include "runtime/container.h"

#include "common/logging.h"
#include "common/strings.h"

namespace heron {
namespace runtime {

Container::Container(const packing::ContainerPlan& plan,
                     std::shared_ptr<const proto::PhysicalPlan> physical_plan,
                     const Config& config, smgr::Transport* transport,
                     const Clock* clock)
    : plan_(plan),
      physical_plan_(std::move(physical_plan)),
      config_(config),
      transport_(transport),
      clock_(clock),
      metrics_manager_(clock),
      housekeeping_(
          EventLoop::Options{
              /*.name=*/StrFormat("container-%d", plan.id),
              /*.burst=*/128,
              /*.registry=*/&housekeeping_metrics_,
              /*.metric_prefix=*/"container"},
          clock) {}

Container::~Container() { Stop(); }

Status Container::Start() { return StartInternal(/*step_mode=*/false); }

Status Container::StartStepMode() { return StartInternal(/*step_mode=*/true); }

Status Container::StartInternal(bool step_mode) {
  if (started_) {
    return Status::FailedPrecondition(
        StrFormat("container %d already started", plan_.id));
  }
  step_mode_ = step_mode;

  smgr::StreamManager::Options smgr_options;
  smgr_options.container = plan_.id;
  smgr_options.acking =
      config_.GetBoolOr(config_keys::kAckingEnabled, false);
  smgr_options.cache_drain_frequency_ms =
      config_.GetIntOr(config_keys::kCacheDrainFrequencyMs, 10);
  smgr_options.cache_drain_size_bytes = static_cast<size_t>(
      config_.GetIntOr(config_keys::kCacheDrainSizeBytes, 1 << 20));
  smgr_options.message_timeout_ms =
      config_.GetIntOr(config_keys::kMessageTimeoutMs, 30000);
  smgr_options.backpressure_high_water = static_cast<size_t>(
      config_.GetIntOr(config_keys::kBackpressureHighWater, 4096));
  smgr_options.backpressure_low_water = static_cast<size_t>(
      config_.GetIntOr(config_keys::kBackpressureLowWater, 0));
  smgr_options.seed = 42 + static_cast<uint64_t>(plan_.id);
  smgr_options.announce_recovery = recovering_;
  smgr_options.span_collector = span_collector_;
  smgr_options.journal = journal_;
  recovering_ = false;
  smgr_ = std::make_unique<smgr::StreamManager>(smgr_options, physical_plan_,
                                                transport_, clock_);
  HERON_RETURN_NOT_OK(smgr_->Start());
  Launch(smgr_->loop());
  metrics_manager_
      .RegisterSource(StrFormat("smgr-%d", plan_.id), smgr_->metrics())
      .ok();

  for (const auto& inst : plan_.instances) {
    instance::HeronInstance::Options options;
    options.task = inst.task_id;
    options.config = config_;
    options.acking = smgr_options.acking;
    options.max_spout_pending =
        config_.GetIntOr(config_keys::kMaxSpoutPending, 0);
    options.inbound_capacity = static_cast<size_t>(
        config_.GetIntOr(config_keys::kInstanceInboundCapacity, 1 << 16));
    options.emit_batch_tuples = static_cast<size_t>(
        config_.GetIntOr(config_keys::kInstanceEmitBatchTuples, 64));
    options.seed = 1000 + static_cast<uint64_t>(inst.task_id);
    options.trace_sample_inverse =
        config_.GetIntOr(config_keys::kTraceSampleInverse, 0);
    options.span_collector = span_collector_;
    options.checkpoint_state = checkpoint_state_;
    options.restore_checkpoint = restore_checkpoint_;
    options.checkpoint_epoch = checkpoint_epoch_;
    auto instance = std::make_unique<instance::HeronInstance>(
        options, physical_plan_, transport_, clock_, smgr_.get());
    const Status st = instance->Start();
    if (!st.ok()) {
      Stop();
      return st.WithContext(
          StrFormat("starting task %d in container %d", inst.task_id,
                    plan_.id));
    }
    Launch(instance->loop());
    metrics_manager_
        .RegisterSource(StrFormat("task-%d", inst.task_id),
                        instance->metrics())
        .ok();
    instances_.push_back(std::move(instance));
  }

  // Metrics Manager housekeeping: periodic collection on the container's
  // reactor, at the configured cadence.
  metrics_manager_
      .RegisterSource(StrFormat("container-%d", plan_.id),
                      &housekeeping_metrics_)
      .ok();
  if (!housekeeping_wired_) {
    const int64_t collect_interval_ms =
        config_.GetIntOr(config_keys::kMetricsCollectIntervalMs, 5);
    housekeeping_.AddPeriodic(collect_interval_ms * 1000000,
                              [this] { metrics_manager_.Collect(); });
    housekeeping_wired_ = true;
  }
  Launch(&housekeeping_);

  started_ = true;
  HLOG(INFO) << "container " << plan_.id << " up: smgr + "
             << instances_.size() << " instances";
  return Status::OK();
}

void Container::Launch(EventLoop* loop) {
  if (step_mode_) return;
  if (tasklet_pool_ != nullptr) {
    tasklet_pool_->Add(loop);
  } else {
    loop->Start();
  }
}

void Container::Step() {
  if (!started_ || !step_mode_) return;
  if (smgr_ != nullptr) smgr_->loop()->RunOnce();
  for (auto& instance : instances_) {
    instance->loop()->RunOnce();
  }
  housekeeping_.RunOnce();
}

void Container::Fail() {
  if (!started_) return;
  // Halt order mirrors Stop()'s join-before-destroy discipline, but with
  // Halt instead of Stop: no shutdown drain anywhere. Housekeeping first —
  // its Collect() snapshots registries the kills below will orphan.
  housekeeping_.Halt();
  housekeeping_.Join();
  for (auto& instance : instances_) {
    instance->Kill();
  }
  if (smgr_ != nullptr) {
    smgr_->Kill();
  }
  // Only now — every thread joined — may the endpoints be destroyed.
  instances_.clear();
  smgr_.reset();
  started_ = false;
  HLOG(INFO) << "container " << plan_.id << " KILLED (fault injection)";
}

void Container::Stop() {
  // Housekeeping first: Collect() snapshots the instance registries, so
  // the collection loop must be finished before any registry dies.
  housekeeping_.Stop();
  housekeeping_.Finish();
  // Park every thread before destroying any endpoint: the SMGR's wire
  // thread can be mid-TrySend into an instance channel (delivering a
  // routed batch or a parked retry), so no instance may be destroyed
  // until the SMGR has joined — and vice versa for instances still
  // flushing toward the SMGR.
  for (auto& instance : instances_) {
    instance->Stop();
  }
  if (smgr_ != nullptr) {
    smgr_->Stop();
  }
  instances_.clear();
  smgr_.reset();
  started_ = false;
}

int64_t Container::SumInstanceGauge(const std::string& name) const {
  int64_t total = 0;
  for (const auto& instance : instances_) {
    total += const_cast<instance::HeronInstance*>(instance.get())
                 ->metrics()
                 ->GetGauge(name)
                 ->value();
  }
  return total;
}

int64_t Container::SmgrGauge(const std::string& name) const {
  if (smgr_ == nullptr) return 0;
  return const_cast<smgr::StreamManager*>(smgr_.get())
      ->metrics()
      ->GetGauge(name)
      ->value();
}

uint64_t Container::SmgrCounter(const std::string& name) const {
  if (smgr_ == nullptr) return 0;
  return const_cast<smgr::StreamManager*>(smgr_.get())
      ->metrics()
      ->GetCounter(name)
      ->value();
}

uint64_t Container::SumInstanceCounter(const std::string& name,
                                       const std::string& component) const {
  uint64_t total = 0;
  for (const auto& instance : instances_) {
    if (!component.empty() && instance->component() != component) continue;
    total += const_cast<instance::HeronInstance*>(instance.get())
                 ->metrics()
                 ->GetCounter(name)
                 ->value();
  }
  return total;
}

}  // namespace runtime
}  // namespace heron
