#include "tmaster/checkpoint_coordinator.h"

#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "proto/messages.h"
#include "serde/wire.h"

namespace heron {
namespace tmaster {
namespace {

/// Sends a coordinator-originated barrier message (origin -1) straight
/// into `task`'s inbound channel.
Status SendToTask(smgr::Transport* transport, TaskId task, uint8_t kind,
                  uint64_t ckpt_id) {
  proto::CheckpointBarrierMsg msg;
  msg.ckpt_id = ckpt_id;
  msg.origin_task = -1;
  msg.kind = kind;
  serde::Buffer payload = transport->buffer_pool()->Acquire();
  serde::WireEncoder enc(&payload);
  msg.SerializeTo(&enc);
  proto::Envelope env(proto::MessageType::kCheckpointBarrier,
                      std::move(payload));
  env.dest_task = task;
  return transport->TrySend(smgr::Transport::InstanceEndpoint(task), &env);
}

}  // namespace

CheckpointCoordinator::CheckpointCoordinator(const Options& options,
                                             statemgr::IStateManager* state,
                                             smgr::Transport* transport,
                                             const Clock* clock)
    : options_(options), state_(state), transport_(transport), clock_(clock) {}

void CheckpointCoordinator::SetPlan(
    std::shared_ptr<const proto::PhysicalPlan> plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++plan_epoch_;
  if (in_flight_ != 0) AbortInFlightLocked();
  plan_ = std::move(plan);
}

void CheckpointCoordinator::Tick(int64_t now_nanos) {
  bool should_trigger = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (in_flight_ != 0) {
      PollCompletionLocked();
      // Stale in-flight checkpoint: its barrier raced a restart and died
      // with an endpoint, so it can never complete. Time it out rather
      // than wedge the periodic cadence.
      if (in_flight_ != 0 && options_.interval_ms > 0 &&
          now_nanos - last_trigger_nanos_ >=
              options_.stale_timeout_multiple * options_.interval_ms *
                  1000000) {
        AbortInFlightLocked();
      }
    }
    should_trigger =
        options_.interval_ms > 0 && plan_ != nullptr && in_flight_ == 0 &&
        now_nanos - last_trigger_nanos_ >= options_.interval_ms * 1000000;
  }
  if (should_trigger) TriggerNow();
}

uint64_t CheckpointCoordinator::TriggerNow() {
  // The whole trigger — id allocation, tree creation, barrier injection —
  // runs under the lock. The old unlocked middle section could be raced
  // by SetPlan: the abort would delete the checkpoint tree, and the
  // trigger would then resurrect it and inject barriers for a plan that
  // no longer exists. Nothing called here re-enters the coordinator, so
  // holding the lock is safe.
  std::lock_guard<std::mutex> lock(mutex_);
  if (plan_ == nullptr || in_flight_ != 0) return 0;
  const std::shared_ptr<const proto::PhysicalPlan> plan = plan_;
  const uint64_t id = next_ckpt_id_++;
  in_flight_ = id;
  in_flight_plan_ = plan;
  last_trigger_nanos_ = clock_->NowNanos();
  // The checkpoint's parent node must exist before any task writes its
  // snapshot (CreateNode requires parents); EnsurePath also covers the
  // very first checkpoint creating /topologies/<t>/checkpoints itself.
  const Status st = statemgr::EnsurePath(
      state_, statemgr::paths::Checkpoint(options_.topology, id), "");
  if (!st.ok()) {
    HLOG(ERROR) << "checkpoint " << id
                << ": cannot create tree: " << st.ToString();
    in_flight_ = 0;
    in_flight_plan_.reset();
    ++aborted_;
    return 0;
  }
  if (options_.journal != nullptr) {
    options_.journal->Record(
        observability::JournalEventType::kCheckpointTriggered,
        /*origin=*/-1, /*task=*/-1, last_trigger_nanos_,
        /*arg0=*/static_cast<int64_t>(id),
        /*arg1=*/static_cast<int64_t>(plan->num_tasks()));
  }
  // Inject the trigger into every spout. A spout whose container is mid
  // restart simply misses it — the checkpoint then never completes and is
  // aborted by the recovery path or superseded by the next trigger.
  for (const TaskId task : plan->all_tasks()) {
    const api::ComponentDef* def = plan->ComponentOfTask(task);
    if (def == nullptr || def->kind != api::ComponentKind::kSpout) continue;
    const Status send = SendToTask(
        transport_, task, proto::CheckpointBarrierMsg::kTrigger, id);
    if (!send.ok()) {
      HLOG(WARNING) << "checkpoint " << id << ": trigger for spout " << task
                    << " undeliverable (" << send.ToString() << ")";
    }
  }
  return id;
}

void CheckpointCoordinator::PollCompletionLocked() {
  if (in_flight_plan_ == nullptr || in_flight_ == 0) return;
  const std::string path =
      statemgr::paths::Checkpoint(options_.topology, in_flight_);
  const auto children = state_->ListChildren(path);
  if (!children.ok()) return;
  // Completion is fenced to the plan that triggered the checkpoint. A
  // plan swapped in mid-flight (scaling down, say) must never let a
  // partial old-epoch snapshot set pass for "globally complete" — a
  // restore from it would bring tasks up with state missing.
  if (children->size() < static_cast<size_t>(in_flight_plan_->num_tasks())) {
    return;
  }
  // Globally complete: publish, then garbage-collect superseded trees.
  state_->SetNodeData(path, "complete").ok();
  statemgr::EnsurePath(state_,
                       statemgr::paths::Checkpoints(options_.topology),
                       StrFormat("%llu",
                                 static_cast<unsigned long long>(in_flight_)))
      .ok();
  const uint64_t done = in_flight_;
  latest_complete_ = done;
  in_flight_ = 0;
  in_flight_plan_.reset();
  ++completed_;
  const auto ids = state_->ListChildren(
      statemgr::paths::Checkpoints(options_.topology));
  if (ids.ok()) {
    for (const std::string& name : *ids) {
      const uint64_t old_id = std::strtoull(name.c_str(), nullptr, 10);
      if (old_id != 0 && old_id < done) {
        statemgr::DeleteTree(
            state_, statemgr::paths::Checkpoint(options_.topology, old_id))
            .ok();
      }
    }
  }
  HLOG(INFO) << "checkpoint " << done << " complete for '"
             << options_.topology << "'";
  if (options_.journal != nullptr) {
    const int64_t now = clock_->NowNanos();
    options_.journal->Record(
        observability::JournalEventType::kCheckpointComplete,
        /*origin=*/-1, /*task=*/-1, now,
        /*arg0=*/static_cast<int64_t>(done),
        /*arg1=*/now - last_trigger_nanos_);
  }
}

void CheckpointCoordinator::AbortInFlight() {
  std::lock_guard<std::mutex> lock(mutex_);
  AbortInFlightLocked();
}

void CheckpointCoordinator::AbortInFlightLocked() {
  if (in_flight_ == 0) return;
  HLOG(WARNING) << "checkpoint " << in_flight_ << " aborted";
  statemgr::DeleteTree(
      state_, statemgr::paths::Checkpoint(options_.topology, in_flight_))
      .ok();
  if (options_.journal != nullptr) {
    options_.journal->Record(
        observability::JournalEventType::kCheckpointAborted,
        /*origin=*/-1, /*task=*/-1, clock_->NowNanos(),
        /*arg0=*/static_cast<int64_t>(in_flight_), /*arg1=*/0);
  }
  // A bolt that saw some of this checkpoint's barriers buffers those
  // channels until alignment ends; kAbort ends it now rather than when a
  // newer checkpoint's barrier overtakes. A bolt it cannot reach is dead
  // or restarting, and its next incarnation starts unaligned.
  if (in_flight_plan_ != nullptr) {
    for (const TaskId task : in_flight_plan_->all_tasks()) {
      const api::ComponentDef* def = in_flight_plan_->ComponentOfTask(task);
      if (def == nullptr || def->kind != api::ComponentKind::kBolt) continue;
      SendToTask(transport_, task, proto::CheckpointBarrierMsg::kAbort,
                 in_flight_)
          .ok();
    }
  }
  in_flight_ = 0;
  in_flight_plan_.reset();
  ++aborted_;
}

uint64_t CheckpointCoordinator::plan_epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_epoch_;
}

uint64_t CheckpointCoordinator::latest_complete() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return latest_complete_;
}

uint64_t CheckpointCoordinator::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

uint64_t CheckpointCoordinator::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

uint64_t CheckpointCoordinator::aborted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return aborted_;
}

}  // namespace tmaster
}  // namespace heron
