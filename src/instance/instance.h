#ifndef HERON_INSTANCE_INSTANCE_H_
#define HERON_INSTANCE_INSTANCE_H_

#include <atomic>
#include <memory>
#include <set>
#include <vector>

#include "api/bolt.h"
#include "api/context.h"
#include "api/spout.h"
#include "instance/outbox.h"
#include "common/clock.h"
#include "common/flat_u64_map.h"
#include "common/random.h"
#include "metrics/metrics.h"
#include "observability/trace.h"
#include "proto/physical_plan.h"
#include "runtime/event_loop.h"
#include "smgr/stream_manager.h"
#include "smgr/transport.h"
#include "statemgr/state_manager.h"

namespace heron {
namespace instance {

/// \brief A Heron Instance: one spout or bolt task on its own execution
/// unit (§II: spouts and bolts "run on their own JVM"; §III-A: "every
/// spout and bolt run as separate Heron Instances" for isolation).
///
/// The instance shares nothing with its peers: it constructs its own user
/// object from the component factory, talks to the world only through the
/// serialized instance ↔ SMGR wire, and runs on its own reactor
/// (runtime::EventLoop) — the inbound channel is a registered source, the
/// spout's NextTuple round is an idle worker, and user Open/Prepare run as
/// startup hooks on the loop thread. Spouts additionally enforce the §V-B
/// flow-control knob `max_spout_pending` ("the maximum number of tuples
/// that can be pending on a spout task at any given time") and pause on
/// the local SMGR's back-pressure flag and on parked outbox output.
///
/// The instance does not know what drives its loop: Start() only wires
/// it, and the container runs it on a thread or a tasklet pool, or a
/// deterministic test steps it with RunOnce(). Nothing it does blocks —
/// output the SMGR cannot take yet parks in the outbox backlog, retried
/// by a loop service — so it behaves the same whatever drives it.
class HeronInstance {
 public:
  struct Options {
    TaskId task = -1;
    /// Merged topology + cluster configuration handed to user code.
    Config config;
    bool acking = false;
    /// Maximum outstanding (unacked) spout roots; 0 = unbounded. Only
    /// meaningful with acking.
    int64_t max_spout_pending = 0;
    size_t inbound_capacity = 1 << 16;
    size_t emit_batch_tuples = 64;
    uint64_t seed = 7;
    /// Sampled tuple-path tracing: every `trace_sample_inverse`-th spout
    /// emission carries a trace id (0 = tracing disabled). Bolts ignore
    /// the knob and record spans for any tuple arriving traced.
    int64_t trace_sample_inverse = 0;
    /// The container's span sink; nullptr disables recording entirely
    /// (the hot path never even peeks trace ids then).
    observability::SpanCollector* span_collector = nullptr;
    /// Snapshot target for checkpoint barriers; nullptr disables the
    /// checkpoint path entirely (barrier envelopes are then dropped).
    statemgr::IStateManager* checkpoint_state = nullptr;
    /// When nonzero, restore this checkpoint's snapshot for our task from
    /// `checkpoint_state` right after user Open/Prepare (recovery).
    uint64_t restore_checkpoint = 0;
    /// Incarnation counter bumped on every cluster-wide restore; acks
    /// from a previous epoch that still reach us are counted as stale
    /// (`instance.rootevent.stale`) instead of completing fresh roots.
    int64_t checkpoint_epoch = 0;
  };

  /// \param local_smgr  the container's SMGR, for the back-pressure flag
  ///        (may be null in unit tests; spouts then never pause).
  HeronInstance(const Options& options,
                std::shared_ptr<const proto::PhysicalPlan> plan,
                smgr::Transport* transport, const Clock* clock,
                smgr::StreamManager* local_smgr);
  ~HeronInstance();

  HeronInstance(const HeronInstance&) = delete;
  HeronInstance& operator=(const HeronInstance&) = delete;

  /// Creates the user spout/bolt, registers the inbound channel and wires
  /// the reactor; the caller then drives loop() (see class comment).
  Status Start();
  /// Closes the channel, finishes the loop (its drain and outbox flush),
  /// retries any parked output a bounded number of times, then runs user
  /// Close/Cleanup. Idempotent.
  void Stop();
  /// Hard-kill (fault injection): deregisters and halts the reactor. The
  /// outbox flush and user Close/Cleanup never run — the process "died".
  /// In-flight roots this spout tracked are lost with it; their trees time
  /// out at the ack tracker and replay from the restarted incarnation.
  void Kill();

  /// The reactor this instance runs on.
  runtime::EventLoop* loop() { return &loop_; }

  smgr::EnvelopeChannel* inbound() { return &inbound_; }
  metrics::MetricsRegistry* metrics() { return &metrics_; }
  TaskId task() const { return options_.task; }
  const ComponentId& component() const { return component_; }

  /// Outstanding spout roots (acking mode); for tests and flow control.
  int64_t pending_count() const {
    return pending_count_.load(std::memory_order_relaxed);
  }

 private:
  class SpoutCollector;
  class BoltCollector;

  /// Spout idle worker: one NextTuple round; true when tuples were emitted.
  bool SpoutStep();
  /// Inbound envelope dispatch (root events for spouts, batches for bolts).
  void HandleEnvelope(proto::Envelope env);
  void HandleRootEvent(const serde::Buffer& payload);
  /// Executes a routed batch — unless barrier alignment is buffering its
  /// channel, in which case the payload is moved into `aligned_buffer_`
  /// and false is returned (the caller must not recycle it).
  bool ProcessRoutedBatch(serde::Buffer& payload);
  /// Drops the receive scratch (batch view, reused tuple) when it holds
  /// more than the buffer pool keeps per buffer.
  void ReleaseOversizedReceiveState();

  // -- Checkpointing (aligned barriers; ROADMAP item 2) --------------------

  /// Dispatches a CheckpointBarrierMsg: trigger (spouts), in-stream
  /// barrier (bolt alignment) or abort.
  void HandleBarrier(const serde::Buffer& payload);
  /// Flushes the outbox (pre-barrier tuples first), snapshots user state
  /// (empty marker for stateless tasks — completion counts every task)
  /// into the state tree, and forwards the barrier to the local SMGR.
  void TakeCheckpoint(uint64_t ckpt_id);
  /// Sends the fan-out barrier request (origin = this task) to the local
  /// SMGR, behind everything the outbox already shipped.
  void ForwardBarrier(uint64_t ckpt_id);
  /// Drops alignment state and executes any buffered post-barrier batches
  /// (the data is still at-least-once valid; only the snapshot dies).
  void AbortAlignment();
  /// Restores this task's snapshot of `options_.restore_checkpoint` (runs
  /// as a startup hook, after user Open/Prepare).
  void MaybeRestore();

  Options options_;
  std::shared_ptr<const proto::PhysicalPlan> plan_;
  smgr::Transport* transport_;
  const Clock* clock_;
  smgr::StreamManager* local_smgr_;

  ComponentId component_;
  ContainerId container_ = -1;
  bool is_spout_ = false;

  smgr::EnvelopeChannel inbound_;
  std::unique_ptr<Outbox> outbox_;
  std::unique_ptr<api::TopologyContext> context_;
  std::unique_ptr<api::ISpout> spout_;
  std::unique_ptr<api::IBolt> bolt_;
  /// Non-owning stateful views of spout_/bolt_ (null when the user object
  /// does not implement the stateful surface).
  api::IStatefulSpout* stateful_spout_ = nullptr;
  api::IStatefulBolt* stateful_bolt_ = nullptr;
  std::unique_ptr<SpoutCollector> spout_collector_;
  std::unique_ptr<BoltCollector> bolt_collector_;
  Random rng_;
  metrics::MetricsRegistry metrics_;

  /// Spout bookkeeping: root → (user message id, emit time).
  struct PendingRoot {
    int64_t message_id = 0;
    int64_t emit_time_nanos = 0;
    /// Sampled tracing: record kAckComplete when this root's tree ends.
    bool traced = false;
  };
  FlatU64Map<PendingRoot> pending_roots_;
  std::atomic<int64_t> pending_count_{0};
  /// Decode scratch for kRootEvent envelopes (keeps its capacity).
  proto::RootEventMsg root_events_scratch_;
  /// Bolt receive scratch, reused across batches: views into the routed
  /// payload being executed, and the one tuple every received tuple is
  /// decoded into (IBolt::Execute's input).
  proto::TupleBatchView batch_view_;
  api::Tuple received_;
  /// Spout emission sequence for deterministic 1-in-N trace sampling.
  uint64_t emit_seq_ = 0;

  // Barrier alignment (bolts). A checkpoint is "in alignment" from the
  // first input channel's barrier until every upstream task's barrier has
  // arrived; batches from already-barriered channels are buffered so the
  // snapshot reflects exactly the pre-barrier prefix of every channel.
  std::set<TaskId> upstream_tasks_;   ///< All producer tasks feeding us.
  uint64_t aligning_ckpt_ = 0;        ///< 0 = no alignment in progress.
  uint64_t last_ckpt_done_ = 0;       ///< Completed or aborted; staleness.
  std::set<TaskId> barriered_;        ///< Channels whose barrier arrived.
  std::vector<serde::Buffer> aligned_buffer_;  ///< Post-barrier batches.

  runtime::EventLoop loop_;
  std::atomic<bool> running_{false};
  bool registered_ = false;
  bool started_ = false;

  // Hot-path metric handles.
  metrics::Counter* emitted_;
  metrics::Counter* executed_;
  metrics::Counter* acked_;
  metrics::Counter* failed_;
  metrics::Counter* checkpoints_;
  metrics::Counter* checkpoint_aborts_;
  metrics::Counter* restores_;
  metrics::Counter* aligned_buffered_;
  metrics::Counter* stale_root_events_;
  metrics::Histogram* complete_latency_;
};

}  // namespace instance
}  // namespace heron

#endif  // HERON_INSTANCE_INSTANCE_H_
