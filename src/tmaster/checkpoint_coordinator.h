#ifndef HERON_TMASTER_CHECKPOINT_COORDINATOR_H_
#define HERON_TMASTER_CHECKPOINT_COORDINATOR_H_

#include <memory>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "observability/journal.h"
#include "proto/physical_plan.h"
#include "smgr/transport.h"
#include "statemgr/state_manager.h"

namespace heron {
namespace tmaster {

/// \brief The TMaster-side driver of aligned checkpoints.
///
/// On each trigger the coordinator allocates the next checkpoint id,
/// creates the checkpoint's node in the state tree, and injects a
/// kTrigger CheckpointBarrierMsg directly into every spout's inbound
/// channel. The barrier then travels *in-stream*: each spout snapshots,
/// its SMGR flushes pre-barrier data and barriers every consumer channel,
/// and bolts align (one barrier per input channel) before cutting their
/// own snapshot — Chandy-Lamport over the topology DAG.
///
/// Completion is observed through the same tree the snapshots land in:
/// when `/topologies/<t>/checkpoints/<id>` has one child per task in the
/// physical plan, the checkpoint is globally complete — the node's data
/// flips to "complete", the parent's data records the id as the latest
/// restorable checkpoint, and superseded checkpoint trees are deleted.
/// An abort (recovery, plan change, stale timeout) injects a kAbort the
/// same direct way into every bolt, ending any partial alignment.
///
/// Thread-safety: all entry points lock; the coordinator is driven from
/// the monitor reactor (Tick) and poked by tests (TriggerNow) and the
/// recovery path (AbortInFlight) from other threads.
class CheckpointCoordinator {
 public:
  struct Options {
    std::string topology;
    /// Trigger cadence; 0 disables periodic triggering (explicit
    /// TriggerNow() still works — how deterministic tests drive it).
    int64_t interval_ms = 0;
    /// Periodic mode only: abort an in-flight checkpoint older than this
    /// many intervals. A barrier that raced a container restart is simply
    /// lost (the trigger send or the SMGR fan-out hit a dead endpoint),
    /// leaving the checkpoint permanently incomplete — without this
    /// timeout it would wedge periodic triggering forever.
    int64_t stale_timeout_multiple = 5;
    /// Control-plane flight recorder: trigger/complete/abort land here
    /// (origin -1, arg0 = checkpoint id). nullptr = dark. Record() is
    /// wait-free, so emitting under the coordinator lock is safe.
    observability::EventJournal* journal = nullptr;
  };

  CheckpointCoordinator(const Options& options, statemgr::IStateManager* state,
                        smgr::Transport* transport, const Clock* clock);

  /// Installs (or replaces, after scaling) the plan new checkpoints are
  /// counted against. Bumps the plan epoch and aborts any in-flight
  /// checkpoint: its task set changed, so it must never be judged
  /// complete against the new (possibly smaller) plan and restored with
  /// tasks missing.
  void SetPlan(std::shared_ptr<const proto::PhysicalPlan> plan);

  /// One coordinator round: polls the in-flight checkpoint for global
  /// completion, then triggers a new one when the cadence says so.
  void Tick(int64_t now_nanos);

  /// Starts a checkpoint immediately. Returns its id, or 0 when no plan
  /// is installed or one is already in flight.
  uint64_t TriggerNow();

  /// Abandons the in-flight checkpoint (recovery path: a participant
  /// died, so it can never complete). Its partial tree is deleted, and
  /// every bolt task of its plan is sent a kAbort so that a partial
  /// alignment releases its buffered channels.
  void AbortInFlight();

  /// Latest globally-complete checkpoint id (0 = none yet) — what a
  /// recovery restores.
  uint64_t latest_complete() const;

  /// In-flight checkpoint id (0 = none).
  uint64_t in_flight() const;

  uint64_t completed() const;
  uint64_t aborted() const;
  /// Plan installations so far; checkpoints are fenced to the epoch that
  /// triggered them.
  uint64_t plan_epoch() const;

 private:
  /// Checks the in-flight tree for one-child-per-task *of the plan that
  /// triggered the checkpoint*; on completion publishes the id and
  /// garbage-collects superseded trees.
  void PollCompletionLocked();
  void AbortInFlightLocked();

  Options options_;
  statemgr::IStateManager* state_;
  smgr::Transport* transport_;
  const Clock* clock_;

  mutable std::mutex mutex_;
  std::shared_ptr<const proto::PhysicalPlan> plan_;
  /// Bumped by every SetPlan. The in-flight checkpoint remembers the
  /// epoch (and plan snapshot) it was triggered under, so completion is
  /// never counted against a plan installed later.
  uint64_t plan_epoch_ = 0;
  /// The plan the in-flight checkpoint was triggered against (null when
  /// nothing is in flight). SetPlan aborts in-flight work, but the fence
  /// keeps a racing completion poll honest regardless.
  std::shared_ptr<const proto::PhysicalPlan> in_flight_plan_;
  uint64_t next_ckpt_id_ = 1;
  uint64_t in_flight_ = 0;
  uint64_t latest_complete_ = 0;
  int64_t last_trigger_nanos_ = 0;
  uint64_t completed_ = 0;
  uint64_t aborted_ = 0;
};

}  // namespace tmaster
}  // namespace heron

#endif  // HERON_TMASTER_CHECKPOINT_COORDINATOR_H_
