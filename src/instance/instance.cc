#include "instance/instance.h"

#include <map>

#include "common/logging.h"
#include "common/strings.h"
#include "serde/wire.h"

namespace heron {
namespace instance {

/// Spout-side emission: every tracked emit creates one root, keyed so any
/// SMGR can route its acks home (proto::MakeRootKey).
class HeronInstance::SpoutCollector final : public api::ISpoutOutputCollector {
 public:
  explicit SpoutCollector(HeronInstance* owner) : owner_(owner) {}

  void Emit(const StreamId& stream, api::Values values,
            std::optional<int64_t> message_id) override {
    HeronInstance* in = owner_;
    // Reused across emits: Clear keeps the roots vector's capacity, so a
    // tracked emit allocates no roots vector.
    proto::TupleDataMsg& msg = msg_;
    msg.Clear();
    msg.emit_time_nanos = EmitTime();
    // Deterministic 1-in-N sampling on the spout emission sequence: the
    // same topology under the same clock traces the same tuples. The
    // whole block compiles down to nothing when tracing is off (null
    // collector short-circuits before the counter is touched).
    const bool traced =
        in->options_.span_collector != nullptr &&
        in->options_.trace_sample_inverse > 0 &&
        (in->emit_seq_++ %
         static_cast<uint64_t>(in->options_.trace_sample_inverse)) == 0;
    if (in->options_.acking && message_id.has_value()) {
      const api::TupleKey root = proto::MakeRootKey(
          in->options_.task, in->rng_.NextUint64());
      msg.tuple_key = root;
      msg.roots.push_back(root);
      *in->pending_roots_.TryEmplace(root).first = {
          *message_id, msg.emit_time_nanos, traced};
      in->pending_count_.fetch_add(1, std::memory_order_relaxed);
    } else {
      msg.tuple_key = in->rng_.NextUint64();
    }
    if (traced) {
      // The trace id is the spout tuple key — in acking mode that is the
      // root, so the ack path joins the trace with no extra lookup state.
      msg.trace_id = msg.tuple_key;
      in->options_.span_collector->Record(
          msg.trace_id, observability::TraceStage::kSpoutEmit,
          in->options_.task, msg.emit_time_nanos);
    }
    msg.values = std::move(values);
    in->outbox_->EmitTuple(stream, msg);
    in->emitted_->Increment();
  }

  /// Brackets one NextTuple call of SpoutStep: its emits share one stamp,
  /// read by the first of them.
  void BeginRound() {
    in_round_ = true;
    round_stamped_ = false;
  }
  void EndRound() { in_round_ = false; }

 private:
  /// One clock read per NextTuple round; an emit outside a round (from
  /// Open, Ack or Fail) reads its own time.
  int64_t EmitTime() {
    if (!in_round_) return owner_->clock_->NowNanos();
    if (!round_stamped_) {
      round_nanos_ = owner_->clock_->NowNanos();
      round_stamped_ = true;
    }
    return round_nanos_;
  }

  HeronInstance* owner_;
  proto::TupleDataMsg msg_;
  bool in_round_ = false;
  bool round_stamped_ = false;
  int64_t round_nanos_ = 0;
};

/// Bolt-side emission and acking: accumulates the XOR contribution of the
/// children anchored to each (input tuple, root) pair, so Ack can send the
/// classic k_in ^ XOR(k_children) update in one message.
class HeronInstance::BoltCollector final : public api::IBoltOutputCollector {
 public:
  explicit BoltCollector(HeronInstance* owner) : owner_(owner) {}

  void Emit(const StreamId& stream, const std::vector<const api::Tuple*>& anchors,
            api::Values values) override {
    HeronInstance* in = owner_;
    proto::TupleDataMsg msg;
    msg.tuple_key = in->rng_.NextUint64();
    msg.emit_time_nanos = anchors.empty()
                              ? in->clock_->NowNanos()
                              : anchors.front()->emit_time_nanos();
    if (in->options_.acking) {
      for (const api::Tuple* anchor : anchors) {
        auto& per_root = children_xor_[anchor->tuple_key()];
        for (const api::TupleKey root : anchor->roots()) {
          per_root[root] ^= msg.tuple_key;
          // Deduplicate roots across anchors.
          bool seen = false;
          for (const api::TupleKey r : msg.roots) seen |= (r == root);
          if (!seen) msg.roots.push_back(root);
        }
      }
    }
    msg.values = std::move(values);
    in->outbox_->EmitTuple(stream, msg);
    in->emitted_->Increment();
  }

  void Ack(const api::Tuple& tuple) override {
    HeronInstance* in = owner_;
    if (!in->options_.acking || tuple.roots().empty()) return;
    const auto it = children_xor_.find(tuple.tuple_key());
    for (const api::TupleKey root : tuple.roots()) {
      api::TupleKey xor_value = tuple.tuple_key();
      if (it != children_xor_.end()) {
        const auto rit = it->second.find(root);
        if (rit != it->second.end()) xor_value ^= rit->second;
      }
      in->outbox_->AddAckUpdate(proto::RootKeyTask(root),
                                {root, xor_value, false});
    }
    if (it != children_xor_.end()) children_xor_.erase(it);
  }

  void Fail(const api::Tuple& tuple) override {
    HeronInstance* in = owner_;
    if (!in->options_.acking || tuple.roots().empty()) return;
    for (const api::TupleKey root : tuple.roots()) {
      in->outbox_->AddAckUpdate(proto::RootKeyTask(root), {root, 0, true});
    }
    children_xor_.erase(tuple.tuple_key());
  }

 private:
  HeronInstance* owner_;
  /// input tuple key → (root → XOR of anchored children keys).
  std::map<api::TupleKey, std::map<api::TupleKey, api::TupleKey>>
      children_xor_;
};

HeronInstance::HeronInstance(const Options& options,
                             std::shared_ptr<const proto::PhysicalPlan> plan,
                             smgr::Transport* transport, const Clock* clock,
                             smgr::StreamManager* local_smgr)
    : options_(options),
      plan_(std::move(plan)),
      transport_(transport),
      clock_(clock),
      local_smgr_(local_smgr),
      inbound_(options.inbound_capacity),
      rng_(options.seed ^ (static_cast<uint64_t>(options.task) << 17)),
      loop_(
          runtime::EventLoop::Options{
              /*.name=*/StrFormat("task-%d", options.task),
              /*.burst=*/256,
              /*.registry=*/&metrics_,
              /*.metric_prefix=*/"instance"},
          clock) {
  emitted_ = metrics_.GetCounter("instance.emitted");
  executed_ = metrics_.GetCounter("instance.executed");
  acked_ = metrics_.GetCounter("instance.acked");
  failed_ = metrics_.GetCounter("instance.failed");
  checkpoints_ = metrics_.GetCounter("instance.checkpoints");
  checkpoint_aborts_ = metrics_.GetCounter("instance.checkpoint.aborts");
  restores_ = metrics_.GetCounter("instance.restores");
  aligned_buffered_ = metrics_.GetCounter("instance.aligned.buffered");
  stale_root_events_ = metrics_.GetCounter("instance.rootevent.stale");
  complete_latency_ = metrics_.GetHistogram("instance.complete.latency.ns");
}

HeronInstance::~HeronInstance() { Stop(); }

Status HeronInstance::Start() {
  if (running_.exchange(true)) {
    return Status::FailedPrecondition("instance already running");
  }
  const packing::InstancePlan* inst = plan_->FindInstance(options_.task);
  const api::ComponentDef* def = plan_->ComponentOfTask(options_.task);
  if (inst == nullptr || def == nullptr) {
    running_.store(false);
    return Status::NotFound(
        StrFormat("task %d not in physical plan", options_.task));
  }
  component_ = inst->component;
  HERON_ASSIGN_OR_RETURN(container_, plan_->ContainerOfTask(options_.task));
  is_spout_ = def->kind == api::ComponentKind::kSpout;

  context_ = std::make_unique<api::TopologyContext>(
      plan_->topology().name(), component_, options_.task,
      inst->component_index,
      static_cast<int>(plan_->TasksOfComponent(component_).size()),
      &metrics_);
  outbox_ = std::make_unique<Outbox>(options_.task, component_, container_,
                                     transport_, options_.emit_batch_tuples);

  if (is_spout_) {
    spout_ = def->spout_factory();
    stateful_spout_ = dynamic_cast<api::IStatefulSpout*>(spout_.get());
    spout_collector_ = std::make_unique<SpoutCollector>(this);
  } else {
    bolt_ = def->bolt_factory();
    stateful_bolt_ = dynamic_cast<api::IStatefulBolt*>(bolt_.get());
    bolt_collector_ = std::make_unique<BoltCollector>(this);
    // Barrier alignment needs the full producer set: one barrier per
    // upstream task must arrive before this task's snapshot is cut.
    for (const auto& input : def->inputs) {
      for (const TaskId t : plan_->TasksOfComponent(input.source)) {
        upstream_tasks_.insert(t);
      }
    }
  }

  HERON_RETURN_NOT_OK(transport_->RegisterInstance(options_.task, &inbound_));
  registered_ = true;
  started_ = true;

  // Reactor wiring: user Open/Prepare as startup hooks (they run on the
  // loop thread, like the hand-rolled loops did), the inbound channel as
  // a burst-drained source, and — for spouts — NextTuple as an idle
  // worker subject to back pressure and max_spout_pending.
  if (is_spout_) {
    loop_.OnStartup([this] {
      spout_->Open(options_.config, context_.get(), spout_collector_.get());
      MaybeRestore();
    });
    // The idle worker carries a throttle predicate: while any backpressure
    // initiator (local SMGR or a remote peer via kStartBackpressure) holds
    // a throttle ref, the reactor skips NextTuple entirely — the spout
    // pauses at the loop layer, not inside the worker. SpoutStep keeps its
    // own check as defense in depth for direct single-step calls. With no
    // local SMGR (unit tests) the flag can never rise, so register the
    // predicate-free variant and keep the loop on its hoisted fast path.
    if (local_smgr_ != nullptr) {
      loop_.AddIdle([this] { return SpoutStep(); },
                    [this] { return local_smgr_->backpressure(); });
    } else {
      loop_.AddIdle([this] { return SpoutStep(); });
    }
  } else {
    loop_.OnStartup([this] {
      bolt_->Prepare(options_.config, context_.get(), bolt_collector_.get());
      MaybeRestore();
    });
  }
  loop_.AddChannel<proto::Envelope>(
      &inbound_,
      [this](proto::Envelope&& env) { HandleEnvelope(std::move(env)); });
  // Parked-output retries, like the SMGR's: pump every iteration while a
  // backlog exists, and ask the loop to wake within the idle backoff — a
  // draining SMGR sends no notification back.
  loop_.AddService([this](int64_t now) {
    if (!outbox_->HasBacklog()) return runtime::EventLoop::kNoDeadline;
    outbox_->PumpBacklog();
    return outbox_->HasBacklog() ? now + runtime::EventLoop::kIdleBackoffNanos
                                 : runtime::EventLoop::kNoDeadline;
  });
  // Shutdown drain: ship whatever the outbox still stages.
  loop_.OnShutdown([this] { outbox_->Flush(); });
  return Status::OK();
}

void HeronInstance::Stop() {
  if (registered_) {
    transport_->UnregisterInstance(options_.task).ok();
    registered_ = false;
  }
  running_.store(false);
  // Close-then-finish: the reactor drains remaining envelopes and runs the
  // shutdown flush, on whatever drives it or here.
  inbound_.Close();
  loop_.Finish();
  // Bounded: drops what is still parked if the SMGR never drains (it is
  // stopped after us, so in practice this empties within a few retries).
  for (int i = 0; outbox_ != nullptr && outbox_->HasBacklog() && i < 100000;
       ++i) {
    if (!outbox_->PumpBacklog()) std::this_thread::yield();
  }
  if (started_) {
    if (spout_ != nullptr) spout_->Close();
    if (bolt_ != nullptr) bolt_->Cleanup();
    started_ = false;
  }
}

void HeronInstance::Kill() {
  if (registered_) {
    transport_->UnregisterInstance(options_.task).ok();
    registered_ = false;
  }
  running_.store(false);
  // Halt: no shutdown flush, no user Close/Cleanup — abrupt death.
  loop_.Halt();
  inbound_.Close();
  loop_.Join();
  started_ = false;
}

void HeronInstance::HandleRootEvent(const serde::Buffer& payload) {
  // One envelope carries every tree this spout's SMGR closed in one ack
  // batch or timeout pass; a malformed one is dropped whole.
  if (!root_events_scratch_.ParseFromBytes(payload).ok()) return;
  const int64_t now = clock_->NowNanos();
  for (const proto::RootEvent& event : root_events_scratch_.events) {
    const PendingRoot* found = pending_roots_.Find(event.root);
    if (found == nullptr) {
      // Stale: double timeout, or an ack from a pre-restore epoch reaching
      // the restarted incarnation (whose pending set was rebuilt fresh).
      stale_root_events_->Increment();
      continue;
    }
    const PendingRoot pending = *found;
    pending_roots_.Erase(event.root);
    pending_count_.fetch_sub(1, std::memory_order_relaxed);
    if (pending.traced && options_.span_collector != nullptr) {
      // Tree finished (either way): closes the traced tuple's timeline, so
      // the stage deltas telescope to exactly the complete latency.
      options_.span_collector->Record(
          event.root, observability::TraceStage::kAckComplete,
          options_.task, now);
    }
    if (event.fail) {
      failed_->Increment();
      spout_->Fail(pending.message_id);
    } else {
      acked_->Increment();
      complete_latency_->Record(static_cast<uint64_t>(
          std::max<int64_t>(now - pending.emit_time_nanos, 0)));
      spout_->Ack(pending.message_id);
    }
  }
}

void HeronInstance::HandleEnvelope(proto::Envelope env) {
  if (is_spout_) {
    // Acks first (the reactor polls sources before idle workers, so these
    // free pending slots before the next NextTuple round).
    if (env.type == proto::MessageType::kRootEvent) {
      HandleRootEvent(env.payload);
      transport_->buffer_pool()->Release(std::move(env.payload));
    } else if (env.type == proto::MessageType::kCheckpointBarrier) {
      HandleBarrier(env.payload);
      transport_->buffer_pool()->Release(std::move(env.payload));
    }
    return;
  }
  if (env.type == proto::MessageType::kTupleBatchRouted) {
    // false = alignment moved the payload into aligned_buffer_; it will
    // be recycled when the buffered batch eventually executes.
    if (ProcessRoutedBatch(env.payload)) {
      transport_->buffer_pool()->Release(std::move(env.payload));
    }
  } else if (env.type == proto::MessageType::kCheckpointBarrier) {
    HandleBarrier(env.payload);
    transport_->buffer_pool()->Release(std::move(env.payload));
  }
  outbox_->Flush();
}

bool HeronInstance::SpoutStep() {
  bool can_emit = true;
  if (local_smgr_ != nullptr && local_smgr_->backpressure()) {
    can_emit = false;  // Container-local spout back pressure.
  }
  if (outbox_->HasBacklog()) {
    // Parked output: emitting more would only grow the backlog — wait for
    // the SMGR to drain (the backlog service is retrying).
    can_emit = false;
  }
  if (options_.acking && options_.max_spout_pending > 0 &&
      pending_count_.load(std::memory_order_relaxed) >=
          options_.max_spout_pending) {
    can_emit = false;  // §V-B flow control.
  }
  if (!can_emit) {
    // Blocked: flush and let the reactor park until an ack arrives.
    outbox_->Flush();
    return false;
  }
  const uint64_t before = emitted_->value();
  spout_collector_->BeginRound();
  spout_->NextTuple();
  spout_collector_->EndRound();
  outbox_->Flush();
  // No emission → report "no progress" so the loop backs off briefly
  // instead of spinning on an idle spout.
  return emitted_->value() != before;
}

bool HeronInstance::ProcessRoutedBatch(serde::Buffer& payload) {
  if (!proto::ParseTupleBatchView(payload, &batch_view_).ok()) {
    HLOG(ERROR) << "task " << options_.task << " dropping malformed batch";
    return true;
  }
  if (aligning_ckpt_ != 0 && barriered_.count(batch_view_.src_task) > 0) {
    // This channel already delivered its barrier for the in-flight
    // checkpoint: the batch is post-barrier data and must not leak into
    // the snapshot. Park the raw payload until alignment completes; the
    // views into it are not read again before the next parse.
    aligned_buffer_.push_back(std::move(payload));
    aligned_buffered_->Increment();
    return false;
  }
  // Copy-free receive: every tuple decodes straight from the payload into
  // the one reused tuple, so a warm instance allocates nothing per tuple.
  received_.set_source(batch_view_.src_component, batch_view_.stream,
                       batch_view_.src_task);
  for (const serde::BytesView tuple_bytes : batch_view_.tuples) {
    uint64_t trace_id = 0;
    if (!proto::DecodeTupleInto(tuple_bytes, &received_, &trace_id).ok()) {
      continue;
    }
    // Untraced tuples (trace_id 0, the sampled-out common case) branch
    // once and move on.
    const bool traced = trace_id != 0 && options_.span_collector != nullptr;
    if (traced) {
      options_.span_collector->Record(
          trace_id, observability::TraceStage::kInstanceDequeue,
          options_.task, clock_->NowNanos());
    }
    executed_->Increment();
    bolt_->Execute(received_);
    if (traced) {
      options_.span_collector->Record(trace_id,
                                      observability::TraceStage::kExecute,
                                      options_.task, clock_->NowNanos());
    }
  }
  ReleaseOversizedReceiveState();
  return true;
}

void HeronInstance::ReleaseOversizedReceiveState() {
  // The pool's per-buffer bound applied to the receive scratch: one
  // outsized batch or tuple must not stay resident for the instance's life.
  size_t bytes = batch_view_.tuples.capacity() * sizeof(serde::BytesView) +
                 received_.roots().capacity() * sizeof(api::TupleKey) +
                 received_.values().capacity() * sizeof(api::Value);
  for (const api::Value& v : received_.values()) {
    if (const auto* str = std::get_if<std::string>(&v)) {
      bytes += str->capacity();
    }
  }
  if (bytes <= transport_->buffer_pool()->max_buffer_bytes()) return;
  received_ = api::Tuple();
  batch_view_ = proto::TupleBatchView();
}

void HeronInstance::HandleBarrier(const serde::Buffer& payload) {
  if (options_.checkpoint_state == nullptr) return;
  proto::CheckpointBarrierMsg msg;
  if (!msg.ParseFromBytes(payload).ok()) return;
  if (is_spout_) {
    // Coordinator trigger: snapshot the replay cursor now, then inject
    // the barrier behind everything emitted so far.
    if (msg.kind != proto::CheckpointBarrierMsg::kTrigger) return;
    if (msg.ckpt_id <= last_ckpt_done_) return;  // Duplicate trigger.
    TakeCheckpoint(msg.ckpt_id);
    ForwardBarrier(msg.ckpt_id);
    last_ckpt_done_ = msg.ckpt_id;
    return;
  }
  if (msg.kind == proto::CheckpointBarrierMsg::kAbort) {
    // kAbort(n) ends an alignment of checkpoint n or an older one (the
    // fence below makes every remaining barrier of those stale), never
    // one of a newer checkpoint. Fencing n keeps a straggler barrier of
    // the aborted checkpoint from opening an alignment that can never
    // complete.
    if (aligning_ckpt_ != 0 && aligning_ckpt_ <= msg.ckpt_id) {
      AbortAlignment();
    }
    last_ckpt_done_ = std::max(last_ckpt_done_, msg.ckpt_id);
    return;
  }
  if (msg.kind != proto::CheckpointBarrierMsg::kBarrier) return;
  if (msg.ckpt_id <= last_ckpt_done_) return;  // Stale barrier.
  if (aligning_ckpt_ != 0 && msg.ckpt_id > aligning_ckpt_) {
    // A newer checkpoint's barrier overtook an incomplete alignment —
    // some producer of the older one died or aborted, so that checkpoint
    // can never complete here. Abandon it instead of wedging; its
    // buffered batches execute (at-least-once data is still valid).
    AbortAlignment();
  }
  if (aligning_ckpt_ == 0) {
    aligning_ckpt_ = msg.ckpt_id;
    barriered_.clear();
  }
  if (msg.ckpt_id != aligning_ckpt_) return;  // Older than in-flight; drop.
  if (upstream_tasks_.count(msg.origin_task) > 0) {
    barriered_.insert(msg.origin_task);
  }
  if (barriered_.size() < upstream_tasks_.size()) return;
  // Aligned: every input channel's pre-barrier prefix has executed and
  // nothing after any barrier has. Cut the snapshot, pass the barrier
  // downstream, then release the post-barrier backlog.
  const uint64_t ckpt = aligning_ckpt_;
  TakeCheckpoint(ckpt);
  ForwardBarrier(ckpt);
  last_ckpt_done_ = ckpt;
  aligning_ckpt_ = 0;
  barriered_.clear();
  std::vector<serde::Buffer> buffered;
  buffered.swap(aligned_buffer_);
  for (serde::Buffer& buf : buffered) {
    if (ProcessRoutedBatch(buf)) {
      transport_->buffer_pool()->Release(std::move(buf));
    }
  }
}

void HeronInstance::TakeCheckpoint(uint64_t ckpt_id) {
  // FIFO on the instance → SMGR channel makes the boundary exact: every
  // pre-snapshot emission ships before the barrier fan-out request.
  outbox_->Flush();
  std::string snapshot;
  if (stateful_spout_ != nullptr) stateful_spout_->SnapshotState(&snapshot);
  if (stateful_bolt_ != nullptr) stateful_bolt_->SnapshotState(&snapshot);
  // Stateless tasks write an empty marker: global completion is "every
  // task reported", uniform across stateful and stateless components.
  const Status st = statemgr::EnsurePath(
      options_.checkpoint_state,
      statemgr::paths::CheckpointTask(plan_->topology().name(), ckpt_id,
                                      options_.task),
      snapshot);
  if (!st.ok()) {
    HLOG(WARNING) << "task " << options_.task << " checkpoint " << ckpt_id
                  << " snapshot write failed: " << st.message();
    return;
  }
  checkpoints_->Increment();
}

void HeronInstance::ForwardBarrier(uint64_t ckpt_id) {
  if (transport_->SmgrChannel(container_) == nullptr) return;
  proto::CheckpointBarrierMsg msg;
  msg.ckpt_id = ckpt_id;
  msg.origin_task = options_.task;
  msg.kind = proto::CheckpointBarrierMsg::kBarrier;
  serde::Buffer payload = transport_->buffer_pool()->Acquire();
  serde::WireEncoder enc(&payload);
  msg.SerializeTo(&enc);
  proto::Envelope env(proto::MessageType::kCheckpointBarrier,
                      std::move(payload));
  // dest_task -1 = fan-out request: the local SMGR flushes its tuple
  // cache (pre-barrier data first) and barriers every consumer channel.
  // Shipping through the outbox keeps the barrier FIFO behind any data
  // parked in the backlog — a barrier overtaking data would corrupt the
  // snapshot's pre-barrier prefix.
  env.dest_task = -1;
  outbox_->ShipEnvelope(std::move(env));
}

void HeronInstance::AbortAlignment() {
  checkpoint_aborts_->Increment();
  aligning_ckpt_ = 0;
  barriered_.clear();
  std::vector<serde::Buffer> buffered;
  buffered.swap(aligned_buffer_);
  for (serde::Buffer& buf : buffered) {
    if (ProcessRoutedBatch(buf)) {
      transport_->buffer_pool()->Release(std::move(buf));
    }
  }
}

void HeronInstance::MaybeRestore() {
  if (options_.checkpoint_state == nullptr ||
      options_.restore_checkpoint == 0) {
    return;
  }
  const auto data = options_.checkpoint_state->GetNodeData(
      statemgr::paths::CheckpointTask(plan_->topology().name(),
                                      options_.restore_checkpoint,
                                      options_.task));
  if (!data.ok()) {
    HLOG(WARNING) << "task " << options_.task << " has no snapshot in "
                  << "checkpoint " << options_.restore_checkpoint;
    return;
  }
  if (stateful_spout_ != nullptr) stateful_spout_->RestoreState(*data);
  if (stateful_bolt_ != nullptr) stateful_bolt_->RestoreState(*data);
  // Barriers of checkpoints at or below the restored id are stale.
  last_ckpt_done_ = options_.restore_checkpoint;
  restores_->Increment();
}

}  // namespace instance
}  // namespace heron
