#ifndef HERON_SMGR_STREAM_MANAGER_H_
#define HERON_SMGR_STREAM_MANAGER_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "api/grouping.h"
#include "common/clock.h"
#include "metrics/metrics.h"
#include "observability/journal.h"
#include "observability/trace.h"
#include "proto/physical_plan.h"
#include "runtime/event_loop.h"
#include "runtime/tasklet.h"
#include "smgr/ack_tracker.h"
#include "smgr/transport.h"
#include "smgr/tuple_cache.h"

namespace heron {
namespace smgr {

/// \brief The Stream Manager: "the process responsible for routing tuples
/// among Heron Instances" (§II), one per container.
///
/// Receives unrouted tuple batches from the container's local instances,
/// resolves every subscriber's grouping, batches per destination in the
/// TupleCache, and ships batches — still serialized — to local instances
/// or peer Stream Managers. Also owns ack tracking for the roots of the
/// spouts it hosts, and hands each spout its finished trees in one
/// kRootEvent envelope per ack batch (DESIGN.md, "Ack path").
///
/// One path routes every tuple, with the §V-A optimizations built in:
/// routing works on serialized views (ParseTupleBatchView /
/// PeekFieldsHash / PeekDestTask), transit batches are forwarded as byte
/// arrays, and buffers come from the shared pool. The grouping policy is
/// one api::Router per subscriber edge; the SMGR hands it a key hash
/// peeked from the bytes (fields) or the decoded values (custom). The
/// paper's "without optimizations" baseline (Figs. 5–9) is modeled in
/// the DES (`sim::HeronSimConfig::optimizations`), not run live.
///
/// Threading: the SMGR owns no loop body of its own — it registers its
/// inbound channel, cache-drain timer and ack/retry services on a shared
/// runtime::EventLoop (the §II kernel). Start() runs that loop on a
/// thread; StartStepMode() arms it for deterministic single-stepping via
/// loop()->RunOnce() with a SimClock (no threads). The loop never blocks
/// on a send — undeliverable envelopes park in a retry queue, in strict
/// per-channel FIFO (a new envelope never overtakes a parked predecessor
/// on the same channel).
///
/// ## Cluster-wide spout back pressure
/// Heron's spout back-pressure protocol, rendered as a control-plane
/// conversation between Stream Managers: when this SMGR's retry depth
/// crosses `backpressure_high_water` it raises its own throttle and
/// broadcasts `kStartBackpressure` (a BackpressureMsg naming itself as
/// initiator) to every registered peer SMGR. Each receiver adds the
/// initiator to a ref-counted throttle set; while the set (or the local
/// episode) is non-empty, `backpressure()` reads true and the container's
/// spouts pause their NextTuple idle workers. When the retry depth drains
/// to `backpressure_low_water` (hysteresis — not the same threshold, so
/// the flag cannot flap per iteration), `kStopBackpressure` releases the
/// initiator's ref everywhere. Local episodes are measured into
/// `smgr.backpressure.duration.ns`; `smgr.backpressure.active` (own
/// episode), `smgr.backpressure.remote` (throttling initiators) and
/// per-initiator `smgr.backpressure.initiator.<id>` gauges surface the
/// protocol state to the Metrics Manager and, through it, the TMaster's
/// topology status. The whole protocol runs on the reactor, so it
/// single-steps deterministically in RunOnce() tests.
class StreamManager {
 public:
  struct Options {
    ContainerId container = 0;
    bool acking = false;
    int64_t cache_drain_frequency_ms = 10;
    size_t cache_drain_size_bytes = 1 << 20;
    int64_t message_timeout_ms = 30000;
    size_t inbound_capacity = 8192;
    size_t backpressure_high_water = 4096;  ///< Retry entries that trip it.
    /// Retry entries at which an active episode releases (hysteresis).
    /// 0 = half the high watermark. Must be < high watermark to be useful.
    size_t backpressure_low_water = 0;
    /// Seeds the per-edge shuffle RNGs (mixed with the container id).
    uint64_t seed = 42;
    /// Set on a restarted (recovered) container: on registration this SMGR
    /// broadcasts kStopBackpressure naming itself, so survivors release any
    /// throttle ref the *previous* incarnation raised and could never clear
    /// (it died mid-episode). A no-op for peers that held no such ref.
    bool announce_recovery = false;
    /// The container's span sink for sampled tuple-path tracing; nullptr
    /// disables SMGR-side span recording entirely (the routing hot path
    /// then never inspects trace ids at all).
    observability::SpanCollector* span_collector = nullptr;
    /// The container's flight recorder: backpressure transitions land here
    /// (start/stop of the local episode, remote throttle on/off). nullptr
    /// leaves the journal dark — no control-plane event is recorded.
    observability::EventJournal* journal = nullptr;
  };

  StreamManager(const Options& options,
                std::shared_ptr<const proto::PhysicalPlan> plan,
                Transport* transport, const Clock* clock);
  ~StreamManager();

  StreamManager(const StreamManager&) = delete;
  StreamManager& operator=(const StreamManager&) = delete;

  /// Registers the inbound channel with the transport and spawns the loop.
  Status Start();
  /// Step-mode Start: registers with the transport and arms the reactor,
  /// but spawns no thread — the caller drives loop()->RunOnce().
  Status StartStepMode();
  /// Cooperative Start: registers, then hands the reactor to `pool` as a
  /// tasklet instead of spawning a thread. The SMGR loop already never
  /// blocks (TrySend-or-park routing), so no delivery-mode change needed.
  Status StartCooperative(runtime::TaskletPool* pool);
  /// Drains, deregisters and joins. Idempotent.
  void Stop();
  /// Hard-kill (fault injection): deregisters, halts the reactor without
  /// the shutdown drain — cached batches and parked envelopes are lost, as
  /// they would be when the container process dies. At-least-once recovery
  /// of the lost tuples is the ack-timeout's job, not this SMGR's.
  void Kill();

  /// The reactor this SMGR runs on (step-mode tests drive RunOnce on it).
  runtime::EventLoop* loop() { return &loop_; }

  EnvelopeChannel* inbound() { return &inbound_; }
  metrics::MetricsRegistry* metrics() { return &metrics_; }
  const Options& options() const { return options_; }

  /// True while any backpressure initiator — this SMGR itself or a remote
  /// peer that broadcast kStartBackpressure — holds a throttle ref. Local
  /// spouts pause NextTuple while true (§ back pressure). Read from
  /// instance loop threads; the refcount is the only cross-thread state.
  bool backpressure() const {
    return throttle_refs_.load(std::memory_order_acquire) > 0;
  }

  /// True while this SMGR is itself the initiator of a cluster-wide
  /// backpressure episode (retry depth above the high watermark and not
  /// yet drained to the low watermark).
  bool local_backpressure_active() const { return local_backpressure_active_; }

  /// Number of *remote* initiators currently throttling this container.
  size_t remote_backpressure_initiators() const {
    return remote_initiators_.size();
  }

  /// Effective low watermark after the 0 = high/2 default is applied.
  size_t backpressure_low_water() const;

  // -- Single-step interface (used by the loop and by deterministic tests;
  //    call only when the loop thread is not running). --

  /// Processes one envelope end to end.
  void ProcessEnvelope(proto::Envelope env);
  /// Flushes the tuple cache and dispatches the batches.
  void DrainCacheNow(bool timer_drain = true);
  /// Expires overdue roots and notifies spouts.
  void ExpireAcksNow();
  /// Attempts queued re-deliveries; returns entries still parked.
  size_t FlushRetries();

  const TupleCache::Stats& cache_stats() const { return cache_.stats(); }
  size_t acks_pending() const { return tracker_.pending(); }

 private:
  /// Registers handlers/timers/services on the reactor (ctor-time wiring).
  void WireLoop();
  /// Shared Start/StartStepMode body: transport registration + timer arm.
  Status Register();

  /// Routes every tuple of an unrouted batch from a local instance.
  /// `env_trace_id` is the envelope's trace hint: non-zero means at least
  /// one tuple in the batch is traced, so per-tuple trace peeks are worth
  /// paying; zero skips them wholesale.
  void HandleInstanceBatch(const serde::Buffer& payload,
                           uint64_t env_trace_id);
  /// Forwards / delivers a routed batch (from a peer SMGR).
  void HandleRoutedBatch(proto::Envelope env);
  /// Applies or forwards ack updates.
  void HandleAckBatch(proto::Envelope env);
  /// Checkpoint barriers. A fan-out request from a local instance
  /// (dest_task < 0) flushes the tuple cache — pre-barrier data first —
  /// then injects an addressed barrier into every consumer channel of the
  /// origin task, through the same park/retry FIFO as tuples. An
  /// addressed barrier (dest_task >= 0) forwards on metadata alone, like
  /// a routed batch (zero-copy).
  void HandleBarrier(proto::Envelope env);

  /// Routes one serialized tuple along every subscribed edge.
  /// `trace_id` (0 = untraced) rides into the tuple cache so outgoing
  /// envelopes carry the tracing hint.
  void RouteTuple(std::vector<api::Router>* edges, TaskId src_task,
                  serde::BytesView stream, serde::BytesView src_component,
                  serde::BytesView tuple_bytes, uint64_t trace_id);

  /// Registers spout roots when acking (lazy peek on the serialized tuple).
  void MaybeRegisterRoots(TaskId src_task, serde::BytesView tuple_bytes);

  /// Addresses `env` to `dest` and sends it to the task's instance when
  /// the task is local, else to its container's SMGR. A task the plan
  /// does not know is dropped (buffer recycled) and false returned.
  bool Deliver(TaskId dest, proto::Envelope env);
  void TrySendOrPark(const Transport::Endpoint& dest, proto::Envelope env);
  /// Counts a completion and appends it to its spout task's pending
  /// root-event payload.
  void AddRootEvent(const AckTracker::Completion& completion);
  /// Ships one kRootEvent envelope per spout task that gained events.
  void FlushRootEvents();

  // -- Cluster-wide backpressure protocol (loop thread only). --

  /// kStart/kStopBackpressure from a peer: update the throttle refcount.
  void HandleBackpressureControl(proto::MessageType type,
                                 const serde::Buffer& payload);
  /// Raises the local episode when retry depth crosses the high watermark.
  void MaybeTripBackpressure();
  /// Releases it when retry depth drains to the low watermark (hysteresis).
  void MaybeClearBackpressure();
  /// Sends a BackpressureMsg (initiator = this container) to every
  /// registered peer SMGR, through the same park/retry FIFO as data.
  void BroadcastBackpressure(proto::MessageType type);
  /// Episode bookkeeping shared by MaybeClear and shutdown teardown.
  void EndLocalEpisode(bool broadcast);

  Options options_;
  std::shared_ptr<const proto::PhysicalPlan> plan_;
  Transport* transport_;
  const Clock* clock_;

  EnvelopeChannel inbound_;
  TupleCache cache_;
  AckTracker tracker_;
  metrics::MetricsRegistry metrics_;

  /// (component, stream) → one router per subscriber edge; resolved once
  /// at startup.
  std::map<std::pair<ComponentId, StreamId>, std::vector<api::Router>>
      edges_;
  /// Components hosted in this container that are spouts (root owners).
  std::map<TaskId, bool> local_task_is_spout_;

  struct Parked {
    Transport::Endpoint dest;
    proto::Envelope env;
  };
  /// The retry queue holds Endpoints, not channel pointers: parked sends
  /// resolve through the transport directory again, so a destination torn
  /// down on another thread is never dereferenced, and a re-registered
  /// one receives its backlog on the fresh channel.
  std::deque<Parked> retry_;
  /// Per-destination backlog bookkeeping. While `count` is non-zero, new
  /// envelopes for the destination park unconditionally (per-channel
  /// FIFO, no overtake). The cached Route lets FlushRetries resolve each
  /// destination once per pass instead of paying a lock-guarded directory
  /// lookup per parked envelope; it is valid only while `gen` matches the
  /// transport's registration generation.
  struct DestState {
    size_t count = 0;
    bool resolved = false;
    uint64_t gen = 0;
    Transport::Route route;
  };
  std::map<Transport::Endpoint, DestState> parked_per_dest_;

  // Backpressure state. The refcount is read by instance loops (other
  // threads); everything else is owned by this SMGR's loop thread.
  std::atomic<int64_t> throttle_refs_{0};
  bool local_backpressure_active_ = false;
  int64_t backpressure_started_nanos_ = 0;
  std::set<ContainerId> remote_initiators_;

  runtime::EventLoop loop_;
  std::atomic<bool> running_{false};
  bool registered_ = false;

  // Cooperative mode: the pool driving loop_ (null in thread/step mode).
  runtime::TaskletPool* pool_ = nullptr;
  runtime::TaskletPool::Handle* pool_handle_ = nullptr;

  // Hot-path metric handles.
  metrics::Counter* tuples_routed_;
  metrics::Counter* batches_out_;
  metrics::Counter* bytes_out_;
  metrics::Counter* acks_applied_;
  metrics::Counter* roots_completed_;
  metrics::Counter* roots_failed_;
  metrics::Counter* roots_timeout_;
  metrics::Gauge* retry_depth_;
  /// Forwarding-path payload inspections. The zero-copy invariant: every
  /// batch the SMGR forwards (rather than ingests) routes on
  /// Envelope/frame metadata alone, so this counter must read 0. Only
  /// fallback peeks (unaddressed envelopes) count a touch.
  metrics::Counter* payload_touches_;
  /// Barrier fan-out requests served for local origin tasks.
  metrics::Counter* barrier_fanouts_;
  /// Addressed barriers delivered or forwarded (one per consumer channel).
  metrics::Counter* barriers_forwarded_;

  // Backpressure protocol metrics (§ back pressure).
  metrics::Gauge* backpressure_active_;       ///< 1 while a local episode runs.
  metrics::Counter* backpressure_duration_ns_;  ///< Total local episode time.
  metrics::Counter* backpressure_starts_;     ///< Local episodes initiated.
  metrics::Gauge* backpressure_remote_;       ///< Remote initiators throttling.

  // Scratch reused across envelopes (object-reuse discipline, §V-A).
  std::vector<TaskId> route_scratch_;
  proto::TupleBatchView view_scratch_;
  proto::TupleDataMsg custom_scratch_;  ///< Decoded tuple, custom edges.
  const api::Values no_values_;  ///< For routers that read no values.
  std::vector<api::TupleKey> roots_scratch_;
  proto::AckBatchMsg ack_scratch_;

  /// Root events batched per spout task: the completions of one
  /// HandleAckBatch call or one ExpireAcksNow pass, each task's in
  /// completion order, shipped as one envelope per task when the call
  /// ends. A container hosts few spout tasks, so a linear scan finds the
  /// task's payload.
  struct PendingRootEvents {
    TaskId task = -1;
    serde::Buffer payload;  ///< RootEventMsg wire form.
  };
  std::vector<PendingRootEvents> root_events_;
};

/// Plan-swap hygiene: broadcasts kStopBackpressure *on behalf of* a
/// container that a repack removed from the physical plan. If that
/// container died (or was halted) mid-episode, every survivor still holds
/// its throttle ref and — since the initiator no longer exists to drain
/// and announce recovery — would hold it forever, wedging all spouts.
/// Survivors that held no such ref treat the message as a no-op
/// (HandleBackpressureControl erases by initiator id).
void AnnounceInitiatorRemoved(Transport* transport, ContainerId removed);

}  // namespace smgr
}  // namespace heron

#endif  // HERON_SMGR_STREAM_MANAGER_H_
