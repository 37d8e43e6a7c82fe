#include "instance/outbox.h"

#include "common/logging.h"

namespace heron {
namespace instance {

namespace tbf = proto::tuple_batch_fields;

Outbox::Outbox(TaskId task, ComponentId component, ContainerId container,
               smgr::Transport* transport, size_t flush_tuples)
    : task_(task),
      component_(component),
      container_(container),
      transport_(transport),
      flush_tuples_(flush_tuples == 0 ? 1 : flush_tuples) {}

void Outbox::EmitTuple(const StreamId& stream,
                       const proto::TupleDataMsg& msg) {
  auto it = pending_.find(stream);
  if (it == pending_.end()) {
    PendingBatch fresh;
    fresh.buffer = transport_->buffer_pool()->Acquire();
    serde::WireEncoder enc(&fresh.buffer);
    enc.WriteInt32Field(tbf::kSrcTask, task_);
    // dest_task is routed by the SMGR; -1 marks the batch unrouted.
    enc.WriteInt32Field(tbf::kDestTask, -1);
    enc.WriteBytesField(tbf::kStream, stream);
    enc.WriteBytesField(tbf::kSrcComponent, component_);
    it = pending_.emplace(stream, std::move(fresh)).first;
  }
  PendingBatch& batch = it->second;
  serde::WireEncoder enc(&batch.buffer);
  msg.AppendAsField(tbf::kTuple, &enc);
  ++batch.count;
  if (msg.trace_id != 0) batch.trace_id = msg.trace_id;
  ++tuples_emitted_;
  if (batch.count >= flush_tuples_) {
    FlushStream(stream, &batch);
  }
}

void Outbox::AddAckUpdate(TaskId owner_task, const proto::AckUpdate& update) {
  proto::AckBatchMsg& batch = pending_acks_[owner_task];
  batch.dest_task = owner_task;
  batch.updates.push_back(update);
}

void Outbox::FlushStream(const StreamId& stream, PendingBatch* batch) {
  if (batch->count == 0) return;
  proto::Envelope env(proto::MessageType::kTupleBatch,
                      std::move(batch->buffer));
  env.trace_id = batch->trace_id;
  Ship(std::move(env));
  batch->buffer = serde::Buffer();
  batch->count = 0;
  batch->trace_id = 0;
  pending_.erase(stream);
}

void Outbox::Ship(proto::Envelope env) {
  smgr::EnvelopeChannel* channel = transport_->SmgrChannel(container_);
  if (channel == nullptr) {
    HLOG(WARNING) << "task " << task_
                  << " has no local smgr; dropping batch";
    return;
  }
  // FIFO no-overtake: while anything is parked, everything parks.
  if (!backlog_.empty()) {
    backlog_.push_back(std::move(env));
    return;
  }
  const bool is_batch = env.type == proto::MessageType::kTupleBatch;
  // TrySend moves from `env` only on success; on a full channel the
  // envelope is intact and parks in the backlog.
  const Status st = channel->TrySend(std::move(env));
  if (st.ok()) {
    if (is_batch) ++batches_sent_;
  } else if (st.IsResourceExhausted()) {
    backlog_.push_back(std::move(env));
  }
  // Closed channel: dropped.
}

bool Outbox::PumpBacklog() {
  if (backlog_.empty()) return false;
  smgr::EnvelopeChannel* channel = transport_->SmgrChannel(container_);
  if (channel == nullptr) {
    // SMGR endpoint gone (torn down): nothing will ever take the backlog.
    backlog_.clear();
    return false;
  }
  bool progressed = false;
  while (!backlog_.empty()) {
    const bool is_batch =
        backlog_.front().type == proto::MessageType::kTupleBatch;
    const Status st = channel->TrySend(std::move(backlog_.front()));
    if (st.IsResourceExhausted()) break;  // Still full; front is intact.
    backlog_.pop_front();
    if (st.ok()) {
      if (is_batch) ++batches_sent_;
      progressed = true;
    }
    // Closed channel: popped and dropped.
  }
  return progressed;
}

void Outbox::ShipEnvelope(proto::Envelope env) { Ship(std::move(env)); }

void Outbox::Flush() {
  PumpBacklog();
  while (!pending_.empty()) {
    auto it = pending_.begin();
    const StreamId stream = it->first;
    FlushStream(stream, &it->second);
  }
  if (!pending_acks_.empty()) {
    for (auto& [owner, batch] : pending_acks_) {
      serde::Buffer payload = transport_->buffer_pool()->Acquire();
      serde::WireEncoder enc(&payload);
      batch.SerializeTo(&enc);
      proto::Envelope env(proto::MessageType::kAckBatch, std::move(payload));
      // Address the envelope at the serialization point: every SMGR the
      // ack batch crosses then routes on metadata alone (zero-copy).
      env.dest_task = owner;
      Ship(std::move(env));
    }
    pending_acks_.clear();
  }
}

}  // namespace instance
}  // namespace heron
