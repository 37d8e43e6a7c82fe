#ifndef HERON_PROTO_MESSAGES_H_
#define HERON_PROTO_MESSAGES_H_

#include <string>
#include <vector>

#include "api/tuple.h"
#include "api/values.h"
#include "common/ids.h"
#include "serde/message.h"

namespace heron {
namespace proto {

/// Message kind carried in transport envelopes so receivers can dispatch
/// without parsing the payload.
enum class MessageType : uint8_t {
  kTupleBatch = 1,        ///< Unrouted tuples, instance → its local SMGR.
  kAckBatch = 2,          ///< XOR ack updates toward the root owner's SMGR.
  kRootEvent = 3,         ///< SMGR → spout instance: tree completed/failed.
  kControl = 4,           ///< Control-plane payloads (plan updates, ...).
  kTupleBatchRouted = 5,  ///< Routed tuples, SMGR → SMGR or SMGR → instance.
  kStartBackpressure = 6, ///< SMGR → all peer SMGRs: throttle your spouts.
  kStopBackpressure = 7,  ///< SMGR → all peer SMGRs: release the throttle.
  kCheckpointBarrier = 8, ///< Checkpoint barrier control tuple (in-stream).
};

/// \brief A typed, serialized payload as it crosses the IPC kernel.
///
/// The payload buffer is pooled by the sending side and recycled by the
/// receiver, so steady-state transport performs no allocation (§V-A).
struct Envelope {
  MessageType type = MessageType::kControl;
  serde::Buffer payload;
  /// In-memory tracing hint (not serialized): nonzero when the payload
  /// carries at least one traced tuple, so receivers can record a
  /// transport-hop span without peeking any tuple bytes. Last-traced-wins
  /// when several traced tuples share a batch — tracing is sampled, so
  /// collisions are rare and a single hop span per batch suffices.
  uint64_t trace_id = 0;
  /// Destination task of the payload (-1 = unaddressed). Carried in the
  /// transport frame header (serde::FrameHeader::dest), so a forwarding
  /// Stream Manager routes on envelope metadata alone and never inspects
  /// payload bytes — the zero-copy invariant `smgr.payload_touches`
  /// asserts. Mirrors the dest_task field serialized inside tuple/ack
  /// batch payloads; when -1 receivers fall back to a payload peek.
  TaskId dest_task = -1;

  Envelope() = default;
  Envelope(MessageType t, serde::Buffer p) : type(t), payload(std::move(p)) {}
};

/// \brief Wire form of one data tuple.
///
/// Field layout (proto-style numbers):
///   1  tuple_key        varint (uint64)
///   2  root             varint, repeated
///   3  emit_time_nanos  zigzag varint
///   5  trace_id         varint (uint64), omitted when 0
///   4  values           length-delimited: varint count + EncodeValue * count
///
/// trace_id is written *before* the values blob (despite the higher field
/// number) so the lazy PeekTraceId never has to skip the payload; parsers
/// are field-order agnostic. A zero trace_id (the untraced common case)
/// costs zero wire bytes.
class TupleDataMsg final : public serde::Message {
 public:
  api::TupleKey tuple_key = 0;
  std::vector<api::TupleKey> roots;
  int64_t emit_time_nanos = 0;
  /// Sampled tuple-path tracing (observability): nonzero marks this tuple
  /// as traced; the id joins spans recorded across containers.
  uint64_t trace_id = 0;
  api::Values values;

  /// Size-first: computes the exact encoding size, grows the buffer once
  /// and writes every field through a cursor.
  void SerializeTo(serde::WireEncoder* enc) const override;
  Status ParseFrom(serde::WireDecoder* dec) override;
  void Clear() override;

  /// Exact number of bytes SerializeTo appends.
  size_t ByteSize() const;

  /// Appends this tuple as length-delimited field `field` of an enclosing
  /// message — tag, exact length prefix, then SerializeTo's bytes — with
  /// one buffer growth. The outbox stages every emitted tuple this way.
  void AppendAsField(uint32_t field, serde::WireEncoder* enc) const;

  /// Copies into the user-facing Tuple representation.
  void ToTuple(ComponentId source_component, StreamId stream,
               TaskId source_task, api::Tuple* out) const;
};

/// \brief Wire form of a batch of tuples flowing on one (source task →
/// destination task, stream) edge.
///
/// Field layout:
///   1  src_task       zigzag varint
///   2  dest_task      zigzag varint   <- the only field the lazy path reads
///   3  stream         string
///   4  src_component  string
///   5  tuple          length-delimited TupleDataMsg, repeated
///
/// dest_task is deliberately early in the layout: the receiving Stream
/// Manager "parses only the destination field that determines the
/// particular Heron Instance that must receive the tuple. The tuple is not
/// deserialized but is forwarded as a serialized byte array" (§V-A).
class TupleBatchMsg final : public serde::Message {
 public:
  TaskId src_task = -1;
  TaskId dest_task = -1;
  StreamId stream{kDefaultStreamId};
  ComponentId src_component;
  /// Serialized TupleDataMsg payloads. Kept serialized so a routing SMGR
  /// can append/forward without touching tuple internals.
  std::vector<serde::Buffer> tuples;

  void SerializeTo(serde::WireEncoder* enc) const override;
  Status ParseFrom(serde::WireDecoder* dec) override;
  void Clear() override;
};

/// \brief Lazy/partial parse: extracts only dest_task from a serialized
/// TupleBatchMsg, skipping everything else (§V-A optimization 2). The
/// eager alternative — full TupleBatchMsg::ParseFromBytes — survives only
/// as micro_serde's baseline.
Result<TaskId> PeekDestTask(serde::BytesView batch_bytes);

/// \brief In-place update (§V-A: "performs in-place updates of Protocol
/// Buffer objects"): rewrites dest_task inside serialized batch bytes
/// without reserializing the tuples. Requires the new id to occupy the
/// same zigzag-varint width as the old; returns false otherwise (caller
/// falls back to reserialization).
bool OverwriteDestTaskInPlace(serde::Buffer* batch_bytes, TaskId new_dest);

/// \brief One XOR update toward a tracked root (ack management).
///
/// Field layout: 1 root varint, 2 xor_value varint, 3 fail bool.
struct AckUpdate {
  api::TupleKey root = 0;
  api::TupleKey xor_value = 0;
  bool fail = false;

  bool operator==(const AckUpdate& o) const {
    return root == o.root && xor_value == o.xor_value && fail == o.fail;
  }
};

/// \brief A batch of ack updates routed to the SMGR owning the roots'
/// spout task.
///
/// Field layout: 1 dest_task zigzag (the spout task that emitted the
/// roots), 2 update (length-delimited AckUpdate), repeated.
class AckBatchMsg final : public serde::Message {
 public:
  TaskId dest_task = -1;
  std::vector<AckUpdate> updates;

  void SerializeTo(serde::WireEncoder* enc) const override;
  Status ParseFrom(serde::WireDecoder* dec) override;
  void Clear() override;
};

/// \brief One finished tuple tree: its root and whether it failed.
struct RootEvent {
  api::TupleKey root = 0;
  bool fail = false;

  bool operator==(const RootEvent& o) const {
    return root == o.root && fail == o.fail;
  }
};

/// \brief SMGR → spout instance notification that tuple trees finished:
/// every completion one ack batch (or one timeout pass) produced for this
/// spout task, in completion order.
///
/// Field layout, repeated once per event: 1 acked root varint (uint64) or
/// 2 failed root varint. The field number carries the outcome, so an
/// event costs one tag byte plus the root. The spout executor maps each
/// root back to the user message id and the emit timestamp it recorded
/// at emission time.
class RootEventMsg final : public serde::Message {
 public:
  std::vector<RootEvent> events;

  void SerializeTo(serde::WireEncoder* enc) const override;
  Status ParseFrom(serde::WireDecoder* dec) override;
  void Clear() override;
};

/// Appends one event in RootEventMsg wire form, so a Stream Manager can
/// grow a per-spout payload event by event without a message object.
void AppendRootEvent(serde::WireEncoder* enc, const RootEvent& event);

/// \brief Control envelope of the cluster-wide spout back-pressure
/// protocol (§II / Heron's "spout back pressure"): when a Stream
/// Manager's retry backlog crosses its high watermark it broadcasts a
/// `kStartBackpressure` envelope carrying this payload to every peer
/// SMGR, each of which raises a ref-counted throttle on its local
/// spouts; dropping below the low watermark broadcasts
/// `kStopBackpressure`. The payload is deliberately tiny — the control
/// plane must stay deliverable precisely when the data plane is choking.
///
/// Field layout: 1 initiator zigzag (container id of the choking SMGR),
/// 2 retry_depth varint (diagnostic: the backlog that tripped it).
class BackpressureMsg final : public serde::Message {
 public:
  ContainerId initiator = -1;
  uint64_t retry_depth = 0;

  void SerializeTo(serde::WireEncoder* enc) const override;
  Status ParseFrom(serde::WireDecoder* dec) override;
  void Clear() override;

  bool operator==(const BackpressureMsg& o) const {
    return initiator == o.initiator && retry_depth == o.retry_depth;
  }
};

/// \brief The checkpoint barrier control tuple (aligned snapshots per
/// *Stream-based State-Machine Replication*; ROADMAP item 2).
///
/// One message class serves all three legs of the protocol, distinguished
/// by `kind` and the envelope's `dest_task`:
///  - **kTrigger**, coordinator → spout instance (dest_task = spout task):
///    snapshot your replay cursor and start barrier `ckpt_id`.
///  - **kBarrier** with envelope dest_task = -1, instance → local SMGR: a
///    fan-out request — "I snapshotted; flush my cached tuples, then put a
///    barrier behind them on every downstream channel of `origin_task`".
///  - **kBarrier** with envelope dest_task >= 0, SMGR → SMGR → instance:
///    the in-stream barrier itself; `origin_task` names the upstream
///    channel it closes for alignment purposes.
///  - **kAbort**: coordinator-initiated cancellation (a barrier died with
///    a killed container); aligning bolts release their buffers.
///
/// Field layout: 1 ckpt_id varint, 2 origin_task zigzag, 3 kind varint.
class CheckpointBarrierMsg final : public serde::Message {
 public:
  enum Kind : uint8_t { kTrigger = 0, kBarrier = 1, kAbort = 2 };

  uint64_t ckpt_id = 0;
  TaskId origin_task = -1;
  uint8_t kind = kBarrier;

  void SerializeTo(serde::WireEncoder* enc) const override;
  Status ParseFrom(serde::WireDecoder* dec) override;
  void Clear() override;

  bool operator==(const CheckpointBarrierMsg& o) const {
    return ckpt_id == o.ckpt_id && origin_task == o.origin_task &&
           kind == o.kind;
  }
};

/// \brief Location advertisement the Topology Master writes into the
/// State Manager (§IV-C: "the Topology Master advertises its location
/// through the State Manager to the Stream Manager processes").
///
/// Field layout: 1 topology string, 2 host string, 3 port zigzag,
/// 4 controller_port zigzag.
class TMasterLocationMsg final : public serde::Message {
 public:
  std::string topology;
  std::string host;
  int32_t port = 0;
  int32_t controller_port = 0;

  void SerializeTo(serde::WireEncoder* enc) const override;
  Status ParseFrom(serde::WireDecoder* dec) override;
  void Clear() override;

  bool operator==(const TMasterLocationMsg& o) const {
    return topology == o.topology && host == o.host && port == o.port &&
           controller_port == o.controller_port;
  }
};

/// TupleBatchMsg wire field numbers, exported so components that build
/// batches incrementally (the Stream Manager tuple cache) write the exact
/// same layout the parsers read.
namespace tuple_batch_fields {
inline constexpr uint32_t kSrcTask = 1;
inline constexpr uint32_t kDestTask = 2;
inline constexpr uint32_t kStream = 3;
inline constexpr uint32_t kSrcComponent = 4;
inline constexpr uint32_t kTuple = 5;
}  // namespace tuple_batch_fields

/// Root keys embed the emitting spout's task id in the top 16 bits so any
/// SMGR can route an ack update to the owner container with no extra
/// lookup state.
api::TupleKey MakeRootKey(TaskId spout_task, uint64_t random48);
TaskId RootKeyTask(api::TupleKey root);

/// \brief Zero-copy view of a serialized TupleBatchMsg: header fields plus
/// views into each serialized tuple. Valid only while the underlying
/// buffer lives. This is the optimized Stream Manager's working form — it
/// never materializes tuple objects for routing (§V-A).
struct TupleBatchView {
  TaskId src_task = -1;
  TaskId dest_task = -1;
  serde::BytesView stream;
  serde::BytesView src_component;
  std::vector<serde::BytesView> tuples;
};

/// Parses a serialized TupleBatchMsg into views (no payload copies).
/// Header fields the bytes lack read as TupleBatchMsg's defaults.
Status ParseTupleBatchView(serde::BytesView batch_bytes, TupleBatchView* out);

/// \brief In-place decode of one serialized TupleDataMsg into a reused
/// tuple — the bolt receive path. Overwrites the key, roots, emit time and
/// values of `out` (provenance is the caller's, set once per batch with
/// api::Tuple::set_source) and stores the trace id in `*trace_id`. Each
/// value is decoded into the slot of the same index, so once `out` has
/// held a tuple of the same shape the decode performs no allocation and
/// copies each string payload once. Shares its field loop with
/// TupleDataMsg::ParseFrom. On error `out` holds a partial decode, which
/// the next successful decode overwrites in full.
Status DecodeTupleInto(serde::BytesView tuple_bytes, api::Tuple* out,
                       uint64_t* trace_id);

/// \brief Lazy ack-metadata peek: reads only tuple_key and roots from a
/// serialized TupleDataMsg, stopping before the values blob.
Status PeekTupleKeyAndRoots(serde::BytesView tuple_bytes, api::TupleKey* key,
                            std::vector<api::TupleKey>* roots);

/// \brief Lazy fields-grouping hash: walks the serialized values of a
/// TupleDataMsg and folds the byte ranges of the values at
/// `sorted_field_indices` (ascending) with api::HashCombine — yielding
/// exactly Router::KeyHash of the decoded tuple, without decoding.
Result<uint64_t> PeekFieldsHash(serde::BytesView tuple_bytes,
                                const std::vector<int>& sorted_field_indices);

/// \brief Lazy dest peek for serialized AckBatchMsg (field 1).
Result<TaskId> PeekAckBatchDest(serde::BytesView ack_bytes);

/// \brief Lazy trace peek: reads only the trace_id from a serialized
/// TupleDataMsg (0 when absent — the untraced common case). Stops at the
/// values blob, which serialization always writes last.
Result<uint64_t> PeekTraceId(serde::BytesView tuple_bytes);

}  // namespace proto
}  // namespace heron

#endif  // HERON_PROTO_MESSAGES_H_
