#ifndef HERON_INSTANCE_OUTBOX_H_
#define HERON_INSTANCE_OUTBOX_H_

#include <deque>
#include <map>
#include <string>

#include "common/ids.h"
#include "proto/messages.h"
#include "smgr/transport.h"

namespace heron {
namespace instance {

/// \brief The instance-side half of the instance → Stream Manager wire:
/// serializes emitted tuples into per-stream batches and ack updates into
/// per-owner batches, and ships them to the local SMGR.
///
/// Tuples leave the instance as bytes — the executor serializes exactly
/// once, the SMGR routes the serialized form (§V-A), and only the
/// receiving instance deserializes.
///
/// Delivery never blocks, whatever drives the instance: a pool worker
/// must not stall (the SMGR tasklet draining our channel may be *behind us
/// on the same worker*), and a step-mode test's only thread must not
/// either. A send that finds the SMGR inbound full parks the envelope in a
/// FIFO backlog retried by PumpBacklog(); while a backlog exists every
/// later envelope parks behind it, so tuple order is preserved (no
/// overtake). The instance retries the backlog from a loop service and
/// pauses its spout while one exists.
class Outbox {
 public:
  /// \param flush_tuples  per-stream batch size that triggers a flush
  Outbox(TaskId task, ComponentId component, ContainerId container,
         smgr::Transport* transport, size_t flush_tuples = 64);

  /// Serializes and stages one tuple on `stream`; auto-flushes the stream's
  /// batch at the threshold.
  void EmitTuple(const StreamId& stream, const proto::TupleDataMsg& msg);

  /// Stages one ack update toward `owner_task`'s container.
  void AddAckUpdate(TaskId owner_task, const proto::AckUpdate& update);

  /// Ships every staged batch. Called by the executor at the end of each
  /// loop iteration so nothing lingers while the instance waits for input.
  void Flush();

  /// Ships an already-built envelope through the same FIFO discipline as
  /// staged batches — checkpoint barriers use this so a barrier can never
  /// overtake data parked in the backlog.
  void ShipEnvelope(proto::Envelope env);

  /// Retries parked envelopes in FIFO order; true when any shipped. A
  /// closed or missing SMGR endpoint drops the backlog.
  bool PumpBacklog();
  bool HasBacklog() const { return !backlog_.empty(); }

  uint64_t tuples_emitted() const { return tuples_emitted_; }
  uint64_t batches_sent() const { return batches_sent_; }

 private:
  struct PendingBatch {
    serde::Buffer buffer;  ///< TupleBatchMsg header + appended tuples.
    size_t count = 0;
    /// Envelope tracing hint: last traced tuple staged in this batch (0 =
    /// none) — lets the SMGR skip per-tuple trace peeks on untraced
    /// batches.
    uint64_t trace_id = 0;
  };

  void FlushStream(const StreamId& stream, PendingBatch* batch);
  /// Delivers `env`, or parks it behind the backlog or on a full channel.
  void Ship(proto::Envelope env);

  TaskId task_;
  ComponentId component_;
  ContainerId container_;
  smgr::Transport* transport_;
  size_t flush_tuples_;

  std::map<StreamId, PendingBatch> pending_;
  std::map<TaskId, proto::AckBatchMsg> pending_acks_;
  std::deque<proto::Envelope> backlog_;
  uint64_t tuples_emitted_ = 0;
  uint64_t batches_sent_ = 0;
};

}  // namespace instance
}  // namespace heron

#endif  // HERON_INSTANCE_OUTBOX_H_
