#include "smgr/stream_manager.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"

namespace heron {
namespace smgr {

namespace tbf = proto::tuple_batch_fields;

StreamManager::StreamManager(const Options& options,
                             std::shared_ptr<const proto::PhysicalPlan> plan,
                             Transport* transport, const Clock* clock)
    : options_(options),
      plan_(std::move(plan)),
      transport_(transport),
      clock_(clock),
      inbound_(options.inbound_capacity),
      cache_({options.cache_drain_frequency_ms, options.cache_drain_size_bytes},
             transport->buffer_pool()),
      tracker_(options.message_timeout_ms * 1000000),
      loop_(
          runtime::EventLoop::Options{
              /*.name=*/StrFormat("smgr-%d", options.container),
              /*.burst=*/128,
              /*.idle_backoff_nanos=*/200000,
              /*.max_park_nanos=*/100000000,
              /*.registry=*/&metrics_,
              /*.metric_prefix=*/"smgr"},
          clock) {
  // Resolve the routing table once: one router per subscriber of every
  // (producer component, stream) this container's instances can emit on.
  // Each edge draws its own shuffle seed from this SMGR's seed, so picks
  // are reproducible per container and independent across edges.
  Random seeder(options.seed ^
                (static_cast<uint64_t>(options.container) << 32));
  const api::Topology& topology = plan_->topology();
  for (const auto& component : topology.components()) {
    for (const auto& [stream, schema] : component.outputs) {
      std::vector<api::Router> routers;
      for (const auto& sub : plan_->SubscribersOf(component.id, stream)) {
        routers.emplace_back(sub.spec.grouping, schema,
                             sub.spec.grouping_fields, sub.consumer_tasks,
                             seeder.NextUint64(), sub.spec.custom_fn);
      }
      if (!routers.empty()) {
        edges_[{component.id, stream}] = std::move(routers);
      }
    }
  }
  for (const TaskId task : plan_->TasksInContainer(options_.container)) {
    const api::ComponentDef* def = plan_->ComponentOfTask(task);
    local_task_is_spout_[task] =
        def != nullptr && def->kind == api::ComponentKind::kSpout;
  }

  WireLoop();

  tuples_routed_ = metrics_.GetCounter("smgr.tuples.routed");
  batches_out_ = metrics_.GetCounter("smgr.batches.out");
  bytes_out_ = metrics_.GetCounter("smgr.bytes.out");
  acks_applied_ = metrics_.GetCounter("smgr.acks.applied");
  roots_completed_ = metrics_.GetCounter("smgr.roots.completed");
  roots_failed_ = metrics_.GetCounter("smgr.roots.failed");
  roots_timeout_ = metrics_.GetCounter("smgr.roots.timeout");
  retry_depth_ = metrics_.GetGauge("smgr.retry.depth");
  payload_touches_ = metrics_.GetCounter("smgr.payload_touches");
  barrier_fanouts_ = metrics_.GetCounter("smgr.barrier.fanouts");
  barriers_forwarded_ = metrics_.GetCounter("smgr.barriers.forwarded");
  backpressure_active_ = metrics_.GetGauge("smgr.backpressure.active");
  backpressure_duration_ns_ =
      metrics_.GetCounter("smgr.backpressure.duration.ns");
  backpressure_starts_ = metrics_.GetCounter("smgr.backpressure.starts");
  backpressure_remote_ = metrics_.GetGauge("smgr.backpressure.remote");
}

size_t StreamManager::backpressure_low_water() const {
  const size_t high = options_.backpressure_high_water;
  size_t low = options_.backpressure_low_water;
  if (low == 0) low = high / 2;
  // A low watermark at or above the high one would re-trip immediately;
  // clamp so hysteresis always has a gap (unless high is 0 or 1, where the
  // protocol degenerates to trip-on-any/clear-on-empty).
  if (low >= high) low = high == 0 ? 0 : high - 1;
  return low;
}

StreamManager::~StreamManager() { Stop(); }

void StreamManager::WireLoop() {
  // Envelope handler: the reactor drains the inbound channel in bounded
  // bursts (replacing the bespoke `for (i<128) TryRecv` drain).
  loop_.AddChannel<proto::Envelope>(
      &inbound_,
      [this](proto::Envelope&& env) { ProcessEnvelope(std::move(env)); });

  // Cache drain rides the timer heap: periodic, re-armed from fire time —
  // exactly the ArmTimer(now) policy the hand-rolled loop implemented.
  loop_.AddPeriodic(options_.cache_drain_frequency_ms * 1000000, [this] {
    DrainCacheNow(/*timer_drain=*/true);
    cache_.ArmTimer(clock_->NowNanos());
  });

  // Ack expiry is a dynamic-deadline service: the tracker's next deadline
  // moves as roots register, so it cannot be a fixed timer.
  if (options_.acking) {
    loop_.AddService([this](int64_t now) {
      if (now >= tracker_.NextDeadlineNanos()) ExpireAcksNow();
      return tracker_.NextDeadlineNanos();
    });
  }

  // Parked-send retries: flush every iteration while non-empty, and ask
  // the loop to wake within 1 ms so parked envelopes never stall longer
  // than the hand-rolled loop allowed.
  loop_.AddService([this](int64_t now) {
    if (retry_.empty()) return runtime::EventLoop::kNoDeadline;
    FlushRetries();
    return retry_.empty() ? runtime::EventLoop::kNoDeadline : now + 1000000;
  });

  // Shutdown drain: no tuple stranded in the cache, no envelope parked,
  // and no peer left throttled by an episode we can no longer end.
  loop_.OnShutdown([this] {
    DrainCacheNow(/*timer_drain=*/false);
    FlushRetries();
    if (local_backpressure_active_) {
      EndLocalEpisode(/*broadcast=*/true);
      // The kStop envelopes themselves may have parked; best-effort flush.
      FlushRetries();
    }
  });
}

Status StreamManager::Register() {
  HERON_RETURN_NOT_OK(
      transport_->RegisterSmgr(options_.container, &inbound_));
  registered_ = true;
  cache_.ArmTimer(clock_->NowNanos());
  if (options_.announce_recovery) {
    // Recovered incarnation: release any throttle ref the dead predecessor
    // left on surviving peers (its kStop could never be sent). Goes through
    // the normal park/retry FIFO, so peers not yet registered still get it.
    BroadcastBackpressure(proto::MessageType::kStopBackpressure);
  }
  return Status::OK();
}

Status StreamManager::Start() {
  if (running_.exchange(true)) {
    return Status::FailedPrecondition("stream manager already running");
  }
  HERON_RETURN_NOT_OK(Register());
  loop_.Start();
  return Status::OK();
}

Status StreamManager::StartStepMode() {
  if (running_.exchange(true)) {
    return Status::FailedPrecondition("stream manager already running");
  }
  return Register();
}

Status StreamManager::StartCooperative(runtime::TaskletPool* pool) {
  if (running_.exchange(true)) {
    return Status::FailedPrecondition("stream manager already running");
  }
  HERON_RETURN_NOT_OK(Register());
  pool_ = pool;
  pool_handle_ = pool->Add(&loop_);
  return Status::OK();
}

void StreamManager::Stop() {
  if (registered_) {
    transport_->UnregisterSmgr(options_.container).ok();
    registered_ = false;
  }
  running_.store(false);
  // Closing the inbound lets the reactor drain every remaining envelope
  // and exit; Stop() is deliberately not called first, so nothing is
  // stranded. Shutdown() is a no-op when the loop thread already ran it.
  inbound_.Close();
  if (pool_handle_ != nullptr) {
    // Cooperative: fence the pool worker off the loop, then finish the
    // drain on this thread — the same iterations Run() would have done.
    pool_->Retire(pool_handle_);
    pool_handle_ = nullptr;
    while (!loop_.stopped() && !loop_.sources_done()) loop_.RunOnce();
  }
  loop_.Join();
  loop_.Shutdown();
  // Post-loop teardown bookkeeping: drop the throttle refs held by remote
  // initiators (their kStop can never arrive now) and zero the gauges so a
  // final metrics scrape does not report a dead SMGR as backlogged.
  if (!remote_initiators_.empty()) {
    throttle_refs_.fetch_sub(static_cast<int64_t>(remote_initiators_.size()),
                             std::memory_order_acq_rel);
    for (const ContainerId initiator : remote_initiators_) {
      metrics_
          .GetGauge(StrFormat("smgr.backpressure.initiator.%d", initiator))
          ->Set(0);
    }
    remote_initiators_.clear();
    backpressure_remote_->Set(0);
  }
  retry_depth_->Set(0);
}

void StreamManager::Kill() {
  if (registered_) {
    transport_->UnregisterSmgr(options_.container).ok();
    registered_ = false;
  }
  running_.store(false);
  // Halt, not Stop: the shutdown drain never runs. Whatever sat in the
  // tuple cache or retry queue dies with the "process" — exactly the loss
  // the ack-timeout replay must repair.
  loop_.Halt();
  if (pool_handle_ != nullptr) {
    pool_->Retire(pool_handle_);
    pool_handle_ = nullptr;
  }
  inbound_.Close();
  loop_.Join();
}

void StreamManager::ProcessEnvelope(proto::Envelope env) {
  switch (env.type) {
    case proto::MessageType::kTupleBatch:
      HandleInstanceBatch(env.payload, env.trace_id);
      transport_->buffer_pool()->Release(std::move(env.payload));
      // should_drain() counts eagerly flushed batches too — checking only
      // pending_bytes() stranded eager batches until the next timer tick.
      if (cache_.should_drain()) {
        DrainCacheNow(/*timer_drain=*/false);
      }
      break;
    case proto::MessageType::kTupleBatchRouted:
      HandleRoutedBatch(std::move(env));
      break;
    case proto::MessageType::kAckBatch:
      HandleAckBatch(std::move(env));
      break;
    case proto::MessageType::kCheckpointBarrier:
      HandleBarrier(std::move(env));
      break;
    case proto::MessageType::kStartBackpressure:
    case proto::MessageType::kStopBackpressure:
      HandleBackpressureControl(env.type, env.payload);
      transport_->buffer_pool()->Release(std::move(env.payload));
      break;
    case proto::MessageType::kRootEvent:
    case proto::MessageType::kControl:
      // Control traffic is handled by the container runtime today; the
      // SMGR simply ignores what it does not own.
      break;
  }
}

void StreamManager::MaybeRegisterRoots(TaskId src_task,
                                       serde::BytesView tuple_bytes) {
  api::TupleKey key = 0;
  if (!proto::PeekTupleKeyAndRoots(tuple_bytes, &key, &roots_scratch_).ok()) {
    return;
  }
  const int64_t now = clock_->NowNanos();
  for (const api::TupleKey root : roots_scratch_) {
    tracker_.Register(root, key, now);
  }
}

void StreamManager::RouteTuple(std::vector<api::Router>* edges,
                               TaskId src_task, serde::BytesView stream,
                               serde::BytesView src_component,
                               serde::BytesView tuple_bytes,
                               uint64_t trace_id) {
  for (api::Router& router : *edges) {
    route_scratch_.clear();
    // The router picks every destination; this hop supplies only what it
    // cannot read off the serialized tuple itself.
    switch (router.kind()) {
      case api::GroupingKind::kFields: {
        // The key hash, peeked without decoding a value.
        auto hash = proto::PeekFieldsHash(tuple_bytes, router.field_indices());
        if (!hash.ok()) {
          HLOG(ERROR) << "dropping unroutable tuple: "
                      << hash.status().ToString();
          continue;
        }
        route_scratch_.push_back(router.TaskForKeyHash(*hash));
        break;
      }
      case api::GroupingKind::kCustom:
        // Custom groupings see decoded values by contract; this edge pays
        // the full decode.
        if (!custom_scratch_.ParseFromBytes(tuple_bytes).ok()) continue;
        router.Route(custom_scratch_.values, &route_scratch_);
        break;
      case api::GroupingKind::kShuffle:
      case api::GroupingKind::kGlobal:
      case api::GroupingKind::kAll:
        router.Route(no_values_, &route_scratch_);
        break;
    }
    for (const TaskId dest : route_scratch_) {
      cache_.Add(dest, src_task, stream, src_component, tuple_bytes,
                 trace_id);
      tuples_routed_->Increment();
    }
  }
}

void StreamManager::HandleInstanceBatch(const serde::Buffer& payload,
                                        uint64_t env_trace_id) {
  // Sampled tracing: only when a collector is attached AND the envelope
  // hint says the batch contains a traced tuple do we pay a per-tuple
  // PeekTraceId. Untraced traffic routes with zero extra work.
  const bool peek_traces =
      options_.span_collector != nullptr && env_trace_id != 0;
  // Views only, no tuple materialization.
  if (!proto::ParseTupleBatchView(payload, &view_scratch_).ok()) {
    HLOG(ERROR) << "dropping malformed instance batch";
    return;
  }
  const std::pair<ComponentId, StreamId> key{
      std::string(view_scratch_.src_component),
      std::string(view_scratch_.stream)};
  const auto it = edges_.find(key);
  const bool is_spout =
      options_.acking && local_task_is_spout_[view_scratch_.src_task];
  for (const serde::BytesView tuple : view_scratch_.tuples) {
    if (is_spout) MaybeRegisterRoots(view_scratch_.src_task, tuple);
    uint64_t trace_id = 0;
    if (peek_traces) {
      auto peeked = proto::PeekTraceId(tuple);
      if (peeked.ok() && *peeked != 0) {
        trace_id = *peeked;
        options_.span_collector->Record(
            trace_id, observability::TraceStage::kSmgrRoute,
            options_.container, clock_->NowNanos());
      }
    }
    if (it != edges_.end()) {
      RouteTuple(&it->second, view_scratch_.src_task, view_scratch_.stream,
                 view_scratch_.src_component, tuple, trace_id);
    }
  }
}

void StreamManager::HandleRoutedBatch(proto::Envelope env) {
  // A routed batch entering through the inbound channel crossed the
  // container boundary (local deliveries go straight to the instance in
  // DrainCacheNow); record the transport hop for traced batches.
  if (options_.span_collector != nullptr && env.trace_id != 0) {
    options_.span_collector->Record(
        env.trace_id, observability::TraceStage::kTransportHop,
        options_.container, clock_->NowNanos());
  }
  // Zero-copy route: the destination rode in on the envelope (and, on
  // wire transports, in the frame header), so forwarding never reads a
  // payload byte. The peek below is the compatibility fallback for
  // unaddressed envelopes only — in steady state it never runs, which is
  // exactly what `smgr.payload_touches == 0` asserts.
  TaskId dest = env.dest_task;
  if (dest < 0) {
    payload_touches_->Increment();
    auto peeked = proto::PeekDestTask(env.payload);
    if (!peeked.ok()) {
      HLOG(ERROR) << "dropping routed batch without destination";
      transport_->buffer_pool()->Release(std::move(env.payload));
      return;
    }
    dest = *peeked;
  }
  Deliver(dest, std::move(env));
}

void StreamManager::HandleAckBatch(proto::Envelope env) {
  // Same zero-copy contract as routed batches: the owning spout task is
  // envelope metadata; the payload is only parsed at the terminal hop
  // (applying the updates is ingestion, not forwarding).
  TaskId dest = env.dest_task;
  if (dest < 0) {
    payload_touches_->Increment();
    auto peeked = proto::PeekAckBatchDest(env.payload);
    if (!peeked.ok()) {
      HLOG(ERROR) << "dropping ack batch without destination";
      return;
    }
    dest = *peeked;
  }
  auto container = plan_->ContainerOfTask(dest);
  if (!container.ok()) {
    HLOG(ERROR) << "dropping ack batch for unknown task " << dest;
    return;
  }
  if (*container != options_.container) {
    env.dest_task = dest;
    TrySendOrPark(Transport::SmgrEndpoint(*container), std::move(env));
    return;
  }
  if (!ack_scratch_.ParseFromBytes(env.payload).ok()) {
    HLOG(ERROR) << "dropping malformed ack batch";
    return;
  }
  transport_->buffer_pool()->Release(std::move(env.payload));
  for (const proto::AckUpdate& update : ack_scratch_.updates) {
    acks_applied_->Increment();
    auto completion = tracker_.Update(update.root, update.xor_value,
                                      update.fail);
    if (completion.has_value()) {
      AddRootEvent(*completion);
    }
  }
  FlushRootEvents();
}

void StreamManager::HandleBarrier(proto::Envelope env) {
  if (env.dest_task >= 0) {
    // Addressed barrier: forward on metadata alone, exactly like a routed
    // batch — per-dest FIFO keeps it behind the data it must trail.
    const TaskId dest = env.dest_task;
    if (Deliver(dest, std::move(env))) barriers_forwarded_->Increment();
    return;
  }
  // Fan-out request from a local instance: "my pre-barrier emissions are
  // all behind me on this channel — barrier every consumer I feed."
  proto::CheckpointBarrierMsg msg;
  const Status st = msg.ParseFromBytes(env.payload);
  transport_->buffer_pool()->Release(std::move(env.payload));
  if (!st.ok() || msg.origin_task < 0) {
    HLOG(ERROR) << "dropping malformed barrier fan-out request";
    return;
  }
  // Flush the cache first: batches staged there hold the origin's (and
  // everyone else's) pre-barrier tuples, and they must enter each
  // consumer channel ahead of the barrier.
  DrainCacheNow(/*timer_drain=*/false);
  barrier_fanouts_->Increment();
  const api::ComponentDef* def = plan_->ComponentOfTask(msg.origin_task);
  if (def == nullptr) return;
  std::set<TaskId> consumers;
  for (const auto& [stream, fields] : def->outputs) {
    for (const auto& sub : plan_->SubscribersOf(def->id, stream)) {
      consumers.insert(sub.consumer_tasks.begin(), sub.consumer_tasks.end());
    }
  }
  for (const TaskId consumer : consumers) {
    serde::Buffer payload = transport_->buffer_pool()->Acquire();
    serde::WireEncoder enc(&payload);
    msg.SerializeTo(&enc);
    proto::Envelope out(proto::MessageType::kCheckpointBarrier,
                        std::move(payload));
    if (Deliver(consumer, std::move(out))) barriers_forwarded_->Increment();
  }
}

void StreamManager::AddRootEvent(const AckTracker::Completion& completion) {
  if (completion.fail) {
    roots_failed_->Increment();
  } else {
    roots_completed_->Increment();
  }
  const TaskId task = proto::RootKeyTask(completion.root);
  auto it = std::find_if(
      root_events_.begin(), root_events_.end(),
      [task](const PendingRootEvents& p) { return p.task == task; });
  if (it == root_events_.end()) {
    root_events_.push_back({task, transport_->buffer_pool()->Acquire()});
    it = root_events_.end() - 1;
  }
  serde::WireEncoder enc(&it->payload);
  proto::AppendRootEvent(&enc, {completion.root, completion.fail});
}

void StreamManager::FlushRootEvents() {
  for (PendingRootEvents& pending : root_events_) {
    Deliver(pending.task, proto::Envelope(proto::MessageType::kRootEvent,
                                          std::move(pending.payload)));
  }
  root_events_.clear();
}

void StreamManager::DrainCacheNow(bool timer_drain) {
  for (auto& batch : cache_.DrainAll(timer_drain)) {
    const size_t bytes = batch.bytes.size();
    proto::Envelope env(proto::MessageType::kTupleBatchRouted,
                        std::move(batch.bytes));
    env.trace_id = batch.trace_id;
    if (Deliver(batch.dest, std::move(env))) {
      batches_out_->Increment();
      bytes_out_->Increment(bytes);
    }
  }
}

void StreamManager::ExpireAcksNow() {
  for (const auto& completion : tracker_.ExpireTimeouts(clock_->NowNanos())) {
    roots_timeout_->Increment();
    AddRootEvent(completion);
  }
  FlushRootEvents();
}

bool StreamManager::Deliver(TaskId dest, proto::Envelope env) {
  auto container = plan_->ContainerOfTask(dest);
  if (!container.ok()) {
    // In-flight tuples addressed under a newer/older physical plan during
    // a scaling transition land here; dropping is the correct behaviour
    // (at-most-once for unacked tuples, replay via Fail for acked ones).
    HLOG(WARNING) << "dropping envelope for unknown task " << dest;
    transport_->buffer_pool()->Release(std::move(env.payload));
    return false;
  }
  // Address the envelope here, where the destination is known: every
  // downstream hop (peer SMGRs included) then routes on metadata alone
  // and never peeks the payload.
  env.dest_task = dest;
  TrySendOrPark(*container == options_.container
                    ? Transport::InstanceEndpoint(dest)
                    : Transport::SmgrEndpoint(*container),
                std::move(env));
  return true;
}

void StreamManager::TrySendOrPark(const Transport::Endpoint& dest,
                                  proto::Envelope env) {
  // FIFO invariant: while a destination has parked backlog, every new
  // envelope for it parks unconditionally. Attempting a direct send here
  // would let a fresh envelope overtake a parked predecessor the moment
  // the receiver freed one slot — reordering tuples on that channel.
  const auto backlog = parked_per_dest_.find(dest);
  if (backlog == parked_per_dest_.end()) {
    // Lock-guarded lookup + send; `env` is consumed only on success.
    const Status st = transport_->TrySend(dest, &env);
    if (st.ok() || st.IsCancelled()) return;
    // kNotFound — the endpoint is not registered *yet* (container still
    // starting, or mid-restart). Every destination the SMGR routes to is
    // derived from the physical plan, so it will (re)register; dropping
    // here silently loses tuples emitted during the startup window — the
    // roots then ride out the full message timeout and fail. Park instead:
    // the retry queue delivers the backlog the moment the endpoint
    // registers, which is also what gives a restarted container its
    // in-flight envelopes back.
  }
  // Full, unregistered, or queued behind backlog: park and let the loop
  // retry. The SMGR never blocks on a send, which is what makes the
  // container's channel graph deadlock-free.
  retry_.push_back({dest, std::move(env)});
  ++parked_per_dest_[dest].count;
  retry_depth_->Set(static_cast<int64_t>(retry_.size()));
  MaybeTripBackpressure();
}

size_t StreamManager::FlushRetries() {
  // One pass over the deque. Per-channel FIFO: once a destination refuses
  // an envelope this pass, every later entry for it is requeued untried —
  // otherwise a successor could slip into the slot its predecessor was
  // just denied.
  std::set<Transport::Endpoint> blocked;
  const size_t n = retry_.size();
  if (n != 0) {
    // One registry-lock hold for the whole pass. Each destination's Route
    // is resolved at most once and cached in its DestState (invalidated
    // by the transport's registration generation), so a deep backlog to
    // one endpoint costs one map lookup, not one lock + lookup per
    // envelope. The scope must close before MaybeClearBackpressure below:
    // a kStop broadcast re-enters the transport.
    Transport::FlushScope scope(transport_);
    for (size_t i = 0; i < n; ++i) {
      Parked parked = std::move(retry_.front());
      retry_.pop_front();
      if (blocked.count(parked.dest) != 0) {
        retry_.push_back(std::move(parked));
        continue;
      }
      DestState& state = parked_per_dest_[parked.dest];
      if (!state.resolved || state.gen != scope.generation()) {
        state.resolved = scope.Resolve(parked.dest, &state.route);
        state.gen = scope.generation();
      }
      // An unresolved endpoint is starting or restarting; its backlog
      // must survive until it registers, or tuples emitted across the
      // window are lost.
      const Status st = state.resolved
                            ? scope.TrySend(state.route, &parked.env)
                            : Status::NotFound("endpoint not registered");
      if (st.ok() || st.IsCancelled()) {
        // Delivered (or the channel is closed and draining no further):
        // backlog shrinks.
        auto it = parked_per_dest_.find(parked.dest);
        if (it != parked_per_dest_.end() && --it->second.count == 0) {
          parked_per_dest_.erase(it);
        }
        continue;
      }
      // Full (kResourceExhausted) or not registered yet (kNotFound):
      // keep the envelope parked.
      blocked.insert(parked.dest);
      retry_.push_back(std::move(parked));
    }
  }
  retry_depth_->Set(static_cast<int64_t>(retry_.size()));
  MaybeClearBackpressure();
  return retry_.size();
}

// -- Cluster-wide backpressure protocol --------------------------------

void StreamManager::MaybeTripBackpressure() {
  if (local_backpressure_active_) return;
  if (retry_.size() <= options_.backpressure_high_water) return;
  local_backpressure_active_ = true;  // Set before broadcasting: the
  // broadcast itself may park and re-enter MaybeTripBackpressure, which
  // the flag turns into a no-op (bounded recursion).
  backpressure_started_nanos_ = clock_->NowNanos();
  throttle_refs_.fetch_add(1, std::memory_order_acq_rel);
  backpressure_active_->Set(1);
  backpressure_starts_->Increment();
  HLOG(INFO) << "smgr " << options_.container
             << " starting backpressure (retry depth " << retry_.size()
             << " > " << options_.backpressure_high_water << ")";
  if (options_.journal != nullptr) {
    options_.journal->Record(
        observability::JournalEventType::kBackpressureStart,
        static_cast<int32_t>(options_.container), /*task=*/-1,
        backpressure_started_nanos_,
        /*arg0=*/static_cast<int64_t>(retry_.size()),
        /*arg1=*/static_cast<int64_t>(options_.backpressure_high_water));
  }
  BroadcastBackpressure(proto::MessageType::kStartBackpressure);
}

void StreamManager::MaybeClearBackpressure() {
  if (!local_backpressure_active_) return;
  if (retry_.size() > backpressure_low_water()) return;
  HLOG(INFO) << "smgr " << options_.container
             << " stopping backpressure (retry depth " << retry_.size()
             << " <= " << backpressure_low_water() << ")";
  EndLocalEpisode(/*broadcast=*/true);
}

void StreamManager::EndLocalEpisode(bool broadcast) {
  if (!local_backpressure_active_) return;
  local_backpressure_active_ = false;
  const int64_t now = clock_->NowNanos();
  backpressure_duration_ns_->Increment(now - backpressure_started_nanos_);
  throttle_refs_.fetch_sub(1, std::memory_order_acq_rel);
  backpressure_active_->Set(0);
  if (options_.journal != nullptr) {
    options_.journal->Record(
        observability::JournalEventType::kBackpressureStop,
        static_cast<int32_t>(options_.container), /*task=*/-1, now,
        /*arg0=*/now - backpressure_started_nanos_,
        /*arg1=*/static_cast<int64_t>(retry_.size()));
  }
  if (broadcast) {
    BroadcastBackpressure(proto::MessageType::kStopBackpressure);
  }
}

void StreamManager::BroadcastBackpressure(proto::MessageType type) {
  proto::BackpressureMsg msg;
  msg.initiator = options_.container;
  msg.retry_depth = retry_.size();
  for (const ContainerId peer : transport_->RegisteredSmgrs()) {
    if (peer == options_.container) continue;
    serde::Buffer payload = transport_->buffer_pool()->Acquire();
    serde::WireEncoder enc(&payload);
    msg.SerializeTo(&enc);
    // Control envelopes ride the same park/retry FIFO as data, so a kStop
    // can never overtake the kStart it is meant to cancel. A peer that
    // deregistered mid-snapshot is simply dropped by the guarded send.
    TrySendOrPark(Transport::SmgrEndpoint(peer),
                  proto::Envelope(type, std::move(payload)));
  }
}

void StreamManager::HandleBackpressureControl(proto::MessageType type,
                                              const serde::Buffer& payload) {
  proto::BackpressureMsg msg;
  if (!msg.ParseFromBytes(payload).ok()) {
    HLOG(ERROR) << "dropping malformed backpressure control message";
    return;
  }
  if (msg.initiator < 0 || msg.initiator == options_.container) return;
  if (type == proto::MessageType::kStartBackpressure) {
    if (!remote_initiators_.insert(msg.initiator).second) return;  // Dup.
    throttle_refs_.fetch_add(1, std::memory_order_acq_rel);
    metrics_
        .GetGauge(StrFormat("smgr.backpressure.initiator.%d", msg.initiator))
        ->Set(1);
    HLOG(INFO) << "smgr " << options_.container
               << " throttling spouts for initiator " << msg.initiator
               << " (remote retry depth " << msg.retry_depth << ")";
    if (options_.journal != nullptr) {
      options_.journal->Record(
          observability::JournalEventType::kRemoteThrottleOn,
          static_cast<int32_t>(options_.container), /*task=*/-1,
          clock_->NowNanos(), /*arg0=*/msg.initiator,
          /*arg1=*/static_cast<int64_t>(msg.retry_depth));
    }
  } else {
    if (remote_initiators_.erase(msg.initiator) == 0) return;  // Unknown.
    throttle_refs_.fetch_sub(1, std::memory_order_acq_rel);
    metrics_
        .GetGauge(StrFormat("smgr.backpressure.initiator.%d", msg.initiator))
        ->Set(0);
    HLOG(INFO) << "smgr " << options_.container
               << " released throttle for initiator " << msg.initiator;
    if (options_.journal != nullptr) {
      options_.journal->Record(
          observability::JournalEventType::kRemoteThrottleOff,
          static_cast<int32_t>(options_.container), /*task=*/-1,
          clock_->NowNanos(), /*arg0=*/msg.initiator, /*arg1=*/0);
    }
  }
  backpressure_remote_->Set(static_cast<int64_t>(remote_initiators_.size()));
}

void AnnounceInitiatorRemoved(Transport* transport, ContainerId removed) {
  proto::BackpressureMsg msg;
  msg.initiator = removed;
  msg.retry_depth = 0;
  for (const ContainerId peer : transport->RegisteredSmgrs()) {
    if (peer == removed) continue;
    serde::Buffer payload = transport->buffer_pool()->Acquire();
    serde::WireEncoder enc(&payload);
    msg.SerializeTo(&enc);
    proto::Envelope env(proto::MessageType::kStopBackpressure,
                        std::move(payload));
    const Status st =
        transport->TrySend(Transport::SmgrEndpoint(peer), &env);
    if (!st.ok()) {
      HLOG(WARNING) << "stop-backpressure for removed initiator " << removed
                    << " undeliverable to smgr " << peer << " ("
                    << st.ToString() << ")";
    }
  }
}

}  // namespace smgr
}  // namespace heron
