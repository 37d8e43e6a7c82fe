#include "proto/messages.h"

#include "common/strings.h"

namespace heron {
namespace proto {

namespace {
// TupleDataMsg fields.
constexpr uint32_t kTdKey = 1;
constexpr uint32_t kTdRoot = 2;
constexpr uint32_t kTdEmitTime = 3;
constexpr uint32_t kTdValues = 4;
constexpr uint32_t kTdTraceId = 5;
// TupleBatchMsg fields (public: tuple_batch_fields in the header).
constexpr uint32_t kTbSrcTask = tuple_batch_fields::kSrcTask;
constexpr uint32_t kTbDestTask = tuple_batch_fields::kDestTask;
constexpr uint32_t kTbStream = tuple_batch_fields::kStream;
constexpr uint32_t kTbSrcComponent = tuple_batch_fields::kSrcComponent;
constexpr uint32_t kTbTuple = tuple_batch_fields::kTuple;
// AckBatchMsg fields.
constexpr uint32_t kAbDestTask = 1;
constexpr uint32_t kAbUpdate = 2;
// AckUpdate fields.
constexpr uint32_t kAuRoot = 1;
constexpr uint32_t kAuXor = 2;
constexpr uint32_t kAuFail = 3;
// RootEventMsg fields.
constexpr uint32_t kReAcked = 1;
constexpr uint32_t kReFailed = 2;
// BackpressureMsg fields.
constexpr uint32_t kBpInitiator = 1;
constexpr uint32_t kBpRetryDepth = 2;
// CheckpointBarrierMsg fields.
constexpr uint32_t kCbCkptId = 1;
constexpr uint32_t kCbOriginTask = 2;
constexpr uint32_t kCbKind = 3;
// TMasterLocationMsg fields.
constexpr uint32_t kTmTopology = 1;
constexpr uint32_t kTmHost = 2;
constexpr uint32_t kTmPort = 3;
constexpr uint32_t kTmControllerPort = 4;

// Size-first encoding: each message below computes its exact size, grows
// the buffer once and writes through a cursor.
using serde::BytesFieldSize;
using serde::PutBytesFieldHead;
using serde::PutVarintField;
using serde::VarintFieldSize;

/// Bytes of a values blob: varint count, then every value's encoding.
size_t ValuesBlobSize(const api::Values& values) {
  size_t size = serde::VarintSize(values.size());
  for (const api::Value& v : values) size += api::EncodedValueSize(v);
  return size;
}

/// Bytes of a tuple's encoding whose values blob takes `values_size`.
size_t TupleSize(const TupleDataMsg& msg, size_t values_size) {
  size_t size = VarintFieldSize(kTdKey, msg.tuple_key) +
                VarintFieldSize(kTdEmitTime,
                                serde::ZigZagEncode(msg.emit_time_nanos)) +
                BytesFieldSize(kTdValues, values_size);
  for (const api::TupleKey root : msg.roots) {
    size += VarintFieldSize(kTdRoot, root);
  }
  if (msg.trace_id != 0) size += VarintFieldSize(kTdTraceId, msg.trace_id);
  return size;
}

/// Writes a tuple's encoding at `out` (TupleSize bytes of room).
char* PutTuple(char* out, const TupleDataMsg& msg, size_t values_size) {
  out = PutVarintField(out, kTdKey, msg.tuple_key);
  for (const api::TupleKey root : msg.roots) {
    out = PutVarintField(out, kTdRoot, root);
  }
  out = PutVarintField(out, kTdEmitTime,
                       serde::ZigZagEncode(msg.emit_time_nanos));
  if (msg.trace_id != 0) {
    // Before values (despite the higher number) so PeekTraceId never skips
    // the payload blob. Omitted entirely for untraced tuples.
    out = PutVarintField(out, kTdTraceId, msg.trace_id);
  }
  out = PutBytesFieldHead(out, kTdValues, values_size);
  out = serde::PutVarint(out, msg.values.size());
  for (const api::Value& v : msg.values) out = api::PutValue(out, v);
  return out;
}

}  // namespace

void TupleDataMsg::SerializeTo(serde::WireEncoder* enc) const {
  const size_t values_size = ValuesBlobSize(values);
  PutTuple(enc->Extend(TupleSize(*this, values_size)), *this, values_size);
}

size_t TupleDataMsg::ByteSize() const {
  return TupleSize(*this, ValuesBlobSize(values));
}

void TupleDataMsg::AppendAsField(uint32_t field,
                                 serde::WireEncoder* enc) const {
  const size_t values_size = ValuesBlobSize(values);
  const size_t size = TupleSize(*this, values_size);
  char* out = enc->Extend(BytesFieldSize(field, size));
  PutTuple(PutBytesFieldHead(out, field, size), *this, values_size);
}

namespace {

/// Decodes a values blob (varint count, then EncodeValue * count) into
/// `values` slot by slot: slot i receives value i in place and the vector
/// is resized to the count, so a destination that already holds a tuple of
/// the same shape decodes without allocating.
Status DecodeValuesInto(serde::BytesView blob, api::Values* values) {
  serde::WireDecoder dec(blob);
  HERON_ASSIGN_OR_RETURN(uint64_t count, dec.ReadVarint());
  // Every value takes at least two bytes (kind, payload), so a count past
  // the bytes left is corrupt. Checking first bounds the resize by the
  // input rather than by an untrusted varint.
  if (count > blob.size() - dec.position()) {
    return Status::IOError(StrFormat(
        "values blob claims %llu values in %zu bytes",
        static_cast<unsigned long long>(count), blob.size() - dec.position()));
  }
  values->resize(count);
  for (api::Value& v : *values) {
    HERON_RETURN_NOT_OK(api::DecodeValueInto(&dec, &v));
  }
  return Status::OK();
}

/// Where one TupleDataMsg decode writes each field.
struct TupleFieldSinks {
  api::TupleKey* tuple_key;
  std::vector<api::TupleKey>* roots;
  int64_t* emit_time_nanos;
  uint64_t* trace_id;
  api::Values* values;
};

/// The one field loop of the tuple wire format, shared by
/// TupleDataMsg::ParseFrom and DecodeTupleInto. Overwrites every sink: a
/// field the bytes lack reads as its default. On error the sinks hold a
/// partial decode that the next successful one overwrites in full.
Status DecodeTupleFields(serde::WireDecoder* dec, const TupleFieldSinks& out) {
  *out.tuple_key = 0;
  out.roots->clear();
  *out.emit_time_nanos = 0;
  *out.trace_id = 0;
  bool has_values = false;
  while (!dec->AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec->ReadTag());
    if (tag == 0) break;
    switch (serde::TagFieldNumber(tag)) {
      case kTdKey: {
        HERON_ASSIGN_OR_RETURN(*out.tuple_key, dec->ReadUint64());
        break;
      }
      case kTdRoot: {
        HERON_ASSIGN_OR_RETURN(api::TupleKey root, dec->ReadUint64());
        out.roots->push_back(root);
        break;
      }
      case kTdEmitTime: {
        HERON_ASSIGN_OR_RETURN(*out.emit_time_nanos, dec->ReadInt64());
        break;
      }
      case kTdTraceId: {
        HERON_ASSIGN_OR_RETURN(*out.trace_id, dec->ReadUint64());
        break;
      }
      case kTdValues: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView blob, dec->ReadBytes());
        HERON_RETURN_NOT_OK(DecodeValuesInto(blob, out.values));
        has_values = true;
        break;
      }
      default:
        HERON_RETURN_NOT_OK(dec->SkipField(serde::TagWireType(tag)));
    }
  }
  if (!has_values) out.values->clear();
  return Status::OK();
}

}  // namespace

Status TupleDataMsg::ParseFrom(serde::WireDecoder* dec) {
  return DecodeTupleFields(
      dec, {&tuple_key, &roots, &emit_time_nanos, &trace_id, &values});
}

Status DecodeTupleInto(serde::BytesView tuple_bytes, api::Tuple* out,
                       uint64_t* trace_id) {
  serde::WireDecoder dec(tuple_bytes);
  api::TupleKey key = 0;
  int64_t emit_time_nanos = 0;
  HERON_RETURN_NOT_OK(DecodeTupleFields(
      &dec, {&key, out->mutable_roots(), &emit_time_nanos, trace_id,
             out->mutable_values()}));
  out->set_tuple_key(key);
  out->set_emit_time_nanos(emit_time_nanos);
  return Status::OK();
}

void TupleDataMsg::Clear() {
  tuple_key = 0;
  roots.clear();
  emit_time_nanos = 0;
  trace_id = 0;
  values.clear();
}

void TupleDataMsg::ToTuple(ComponentId source_component, StreamId stream,
                           TaskId source_task, api::Tuple* out) const {
  *out = api::Tuple(std::move(source_component), std::move(stream),
                    source_task, values);
  out->set_tuple_key(tuple_key);
  out->set_roots(roots);
  out->set_emit_time_nanos(emit_time_nanos);
}

void TupleBatchMsg::SerializeTo(serde::WireEncoder* enc) const {
  enc->WriteInt32Field(kTbSrcTask, src_task);
  enc->WriteInt32Field(kTbDestTask, dest_task);
  enc->WriteStringField(kTbStream, stream);
  enc->WriteStringField(kTbSrcComponent, src_component);
  for (const auto& t : tuples) {
    enc->WriteBytesField(kTbTuple, t);
  }
}

Status TupleBatchMsg::ParseFrom(serde::WireDecoder* dec) {
  while (!dec->AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec->ReadTag());
    if (tag == 0) break;
    switch (serde::TagFieldNumber(tag)) {
      case kTbSrcTask: {
        HERON_ASSIGN_OR_RETURN(src_task, dec->ReadInt32());
        break;
      }
      case kTbDestTask: {
        HERON_ASSIGN_OR_RETURN(dest_task, dec->ReadInt32());
        break;
      }
      case kTbStream: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView v, dec->ReadBytes());
        stream = std::string(v);
        break;
      }
      case kTbSrcComponent: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView v, dec->ReadBytes());
        src_component = std::string(v);
        break;
      }
      case kTbTuple: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView v, dec->ReadBytes());
        tuples.emplace_back(v);
        break;
      }
      default:
        HERON_RETURN_NOT_OK(dec->SkipField(serde::TagWireType(tag)));
    }
  }
  return Status::OK();
}

void TupleBatchMsg::Clear() {
  src_task = -1;
  dest_task = -1;
  stream = kDefaultStreamId;
  src_component.clear();
  tuples.clear();
}

Result<TaskId> PeekDestTask(serde::BytesView batch_bytes) {
  serde::WireDecoder dec(batch_bytes);
  while (!dec.AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec.ReadTag());
    if (tag == 0) break;
    if (serde::TagFieldNumber(tag) == kTbDestTask) {
      return dec.ReadInt32();
    }
    HERON_RETURN_NOT_OK(dec.SkipField(serde::TagWireType(tag)));
  }
  return Status::NotFound("serialized batch has no dest_task field");
}

namespace {

size_t AckUpdateSize(const AckUpdate& u) {
  return VarintFieldSize(kAuRoot, u.root) +
         VarintFieldSize(kAuXor, u.xor_value) +
         VarintFieldSize(kAuFail, u.fail ? 1 : 0);
}

}  // namespace

void AckBatchMsg::SerializeTo(serde::WireEncoder* enc) const {
  const uint64_t dest = serde::ZigZagEncode(dest_task);
  size_t size = VarintFieldSize(kAbDestTask, dest);
  for (const AckUpdate& u : updates) {
    size += BytesFieldSize(kAbUpdate, AckUpdateSize(u));
  }
  char* out = PutVarintField(enc->Extend(size), kAbDestTask, dest);
  for (const AckUpdate& u : updates) {
    out = PutBytesFieldHead(out, kAbUpdate, AckUpdateSize(u));
    out = PutVarintField(out, kAuRoot, u.root);
    out = PutVarintField(out, kAuXor, u.xor_value);
    out = PutVarintField(out, kAuFail, u.fail ? 1 : 0);
  }
}

Status AckBatchMsg::ParseFrom(serde::WireDecoder* dec) {
  while (!dec->AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec->ReadTag());
    if (tag == 0) break;
    switch (serde::TagFieldNumber(tag)) {
      case kAbDestTask: {
        HERON_ASSIGN_OR_RETURN(dest_task, dec->ReadInt32());
        break;
      }
      case kAbUpdate: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView blob, dec->ReadBytes());
        serde::WireDecoder inner(blob);
        AckUpdate u;
        while (!inner.AtEnd()) {
          HERON_ASSIGN_OR_RETURN(uint32_t itag, inner.ReadTag());
          if (itag == 0) break;
          switch (serde::TagFieldNumber(itag)) {
            case kAuRoot: {
              HERON_ASSIGN_OR_RETURN(u.root, inner.ReadUint64());
              break;
            }
            case kAuXor: {
              HERON_ASSIGN_OR_RETURN(u.xor_value, inner.ReadUint64());
              break;
            }
            case kAuFail: {
              HERON_ASSIGN_OR_RETURN(u.fail, inner.ReadBool());
              break;
            }
            default:
              HERON_RETURN_NOT_OK(inner.SkipField(serde::TagWireType(itag)));
          }
        }
        updates.push_back(u);
        break;
      }
      default:
        HERON_RETURN_NOT_OK(dec->SkipField(serde::TagWireType(tag)));
    }
  }
  return Status::OK();
}

void AckBatchMsg::Clear() {
  dest_task = -1;
  updates.clear();
}

void AppendRootEvent(serde::WireEncoder* enc, const RootEvent& event) {
  enc->WriteUint64Field(event.fail ? kReFailed : kReAcked, event.root);
}

void RootEventMsg::SerializeTo(serde::WireEncoder* enc) const {
  for (const RootEvent& event : events) AppendRootEvent(enc, event);
}

Status RootEventMsg::ParseFrom(serde::WireDecoder* dec) {
  while (!dec->AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec->ReadTag());
    if (tag == 0) break;
    const uint32_t field = serde::TagFieldNumber(tag);
    if (field == kReAcked || field == kReFailed) {
      HERON_ASSIGN_OR_RETURN(api::TupleKey root, dec->ReadUint64());
      events.push_back({root, field == kReFailed});
    } else {
      HERON_RETURN_NOT_OK(dec->SkipField(serde::TagWireType(tag)));
    }
  }
  return Status::OK();
}

void RootEventMsg::Clear() { events.clear(); }

void BackpressureMsg::SerializeTo(serde::WireEncoder* enc) const {
  enc->WriteInt32Field(kBpInitiator, initiator);
  enc->WriteUint64Field(kBpRetryDepth, retry_depth);
}

Status BackpressureMsg::ParseFrom(serde::WireDecoder* dec) {
  while (!dec->AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec->ReadTag());
    if (tag == 0) break;
    switch (serde::TagFieldNumber(tag)) {
      case kBpInitiator: {
        HERON_ASSIGN_OR_RETURN(initiator, dec->ReadInt32());
        break;
      }
      case kBpRetryDepth: {
        HERON_ASSIGN_OR_RETURN(retry_depth, dec->ReadUint64());
        break;
      }
      default:
        HERON_RETURN_NOT_OK(dec->SkipField(serde::TagWireType(tag)));
    }
  }
  return Status::OK();
}

void BackpressureMsg::Clear() {
  initiator = -1;
  retry_depth = 0;
}

void CheckpointBarrierMsg::SerializeTo(serde::WireEncoder* enc) const {
  enc->WriteUint64Field(kCbCkptId, ckpt_id);
  enc->WriteInt32Field(kCbOriginTask, origin_task);
  enc->WriteUint64Field(kCbKind, kind);
}

Status CheckpointBarrierMsg::ParseFrom(serde::WireDecoder* dec) {
  while (!dec->AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec->ReadTag());
    if (tag == 0) break;
    switch (serde::TagFieldNumber(tag)) {
      case kCbCkptId: {
        HERON_ASSIGN_OR_RETURN(ckpt_id, dec->ReadUint64());
        break;
      }
      case kCbOriginTask: {
        HERON_ASSIGN_OR_RETURN(origin_task, dec->ReadInt32());
        break;
      }
      case kCbKind: {
        HERON_ASSIGN_OR_RETURN(uint64_t v, dec->ReadUint64());
        kind = static_cast<uint8_t>(v);
        break;
      }
      default:
        HERON_RETURN_NOT_OK(dec->SkipField(serde::TagWireType(tag)));
    }
  }
  return Status::OK();
}

void CheckpointBarrierMsg::Clear() {
  ckpt_id = 0;
  origin_task = -1;
  kind = kBarrier;
}

void TMasterLocationMsg::SerializeTo(serde::WireEncoder* enc) const {
  enc->WriteStringField(kTmTopology, topology);
  enc->WriteStringField(kTmHost, host);
  enc->WriteInt32Field(kTmPort, port);
  enc->WriteInt32Field(kTmControllerPort, controller_port);
}

Status TMasterLocationMsg::ParseFrom(serde::WireDecoder* dec) {
  while (!dec->AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec->ReadTag());
    if (tag == 0) break;
    switch (serde::TagFieldNumber(tag)) {
      case kTmTopology: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView v, dec->ReadBytes());
        topology = std::string(v);
        break;
      }
      case kTmHost: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView v, dec->ReadBytes());
        host = std::string(v);
        break;
      }
      case kTmPort: {
        HERON_ASSIGN_OR_RETURN(port, dec->ReadInt32());
        break;
      }
      case kTmControllerPort: {
        HERON_ASSIGN_OR_RETURN(controller_port, dec->ReadInt32());
        break;
      }
      default:
        HERON_RETURN_NOT_OK(dec->SkipField(serde::TagWireType(tag)));
    }
  }
  return Status::OK();
}

void TMasterLocationMsg::Clear() {
  topology.clear();
  host.clear();
  port = 0;
  controller_port = 0;
}

api::TupleKey MakeRootKey(TaskId spout_task, uint64_t random48) {
  return (static_cast<uint64_t>(static_cast<uint16_t>(spout_task)) << 48) |
         (random48 & 0x0000FFFFFFFFFFFFULL);
}

TaskId RootKeyTask(api::TupleKey root) {
  return static_cast<TaskId>(static_cast<uint16_t>(root >> 48));
}

Status ParseTupleBatchView(serde::BytesView batch_bytes, TupleBatchView* out) {
  // Same defaults as TupleBatchMsg::Clear, so a reused view never carries a
  // header field over from the previous batch.
  out->src_task = -1;
  out->dest_task = -1;
  out->stream = kDefaultStreamId;
  out->src_component = {};
  out->tuples.clear();
  serde::WireDecoder dec(batch_bytes);
  while (!dec.AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec.ReadTag());
    if (tag == 0) break;
    switch (serde::TagFieldNumber(tag)) {
      case kTbSrcTask: {
        HERON_ASSIGN_OR_RETURN(out->src_task, dec.ReadInt32());
        break;
      }
      case kTbDestTask: {
        HERON_ASSIGN_OR_RETURN(out->dest_task, dec.ReadInt32());
        break;
      }
      case kTbStream: {
        HERON_ASSIGN_OR_RETURN(out->stream, dec.ReadBytes());
        break;
      }
      case kTbSrcComponent: {
        HERON_ASSIGN_OR_RETURN(out->src_component, dec.ReadBytes());
        break;
      }
      case kTbTuple: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView v, dec.ReadBytes());
        out->tuples.push_back(v);
        break;
      }
      default:
        HERON_RETURN_NOT_OK(dec.SkipField(serde::TagWireType(tag)));
    }
  }
  return Status::OK();
}

Status PeekTupleKeyAndRoots(serde::BytesView tuple_bytes, api::TupleKey* key,
                            std::vector<api::TupleKey>* roots) {
  roots->clear();
  *key = 0;
  serde::WireDecoder dec(tuple_bytes);
  while (!dec.AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec.ReadTag());
    if (tag == 0) break;
    const uint32_t field = serde::TagFieldNumber(tag);
    if (field == kTdKey) {
      HERON_ASSIGN_OR_RETURN(*key, dec.ReadUint64());
    } else if (field == kTdRoot) {
      HERON_ASSIGN_OR_RETURN(api::TupleKey root, dec.ReadUint64());
      roots->push_back(root);
    } else {
      // tuple_key and roots are fields 1-2; anything later means both are
      // done (serialization writes fields in order).
      return Status::OK();
    }
  }
  return Status::OK();
}

namespace {

/// Advances `dec` past one serialized value, returning the byte extent
/// [start, end) of its canonical encoding within the parent buffer.
Status SkipOneValue(serde::WireDecoder* dec, size_t* start, size_t* end) {
  *start = dec->position();
  HERON_ASSIGN_OR_RETURN(uint64_t kind_raw, dec->ReadVarint());
  switch (static_cast<api::ValueKind>(kind_raw)) {
    case api::ValueKind::kInt64:
    case api::ValueKind::kBool: {
      HERON_RETURN_NOT_OK(dec->ReadVarint().status());
      break;
    }
    case api::ValueKind::kDouble: {
      HERON_RETURN_NOT_OK(dec->ReadDouble().status());
      break;
    }
    case api::ValueKind::kString: {
      HERON_RETURN_NOT_OK(dec->ReadBytes().status());
      break;
    }
    default:
      return Status::IOError("unknown value kind in serialized tuple");
  }
  *end = dec->position();
  return Status::OK();
}

}  // namespace

Result<uint64_t> PeekFieldsHash(serde::BytesView tuple_bytes,
                                const std::vector<int>& sorted_field_indices) {
  serde::WireDecoder dec(tuple_bytes);
  while (!dec.AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec.ReadTag());
    if (tag == 0) break;
    if (serde::TagFieldNumber(tag) != kTdValues) {
      HERON_RETURN_NOT_OK(dec.SkipField(serde::TagWireType(tag)));
      continue;
    }
    HERON_ASSIGN_OR_RETURN(serde::BytesView blob, dec.ReadBytes());
    serde::WireDecoder values(blob);
    HERON_ASSIGN_OR_RETURN(uint64_t count, values.ReadVarint());
    uint64_t hash = 0;
    size_t want = 0;
    for (uint64_t i = 0; i < count && want < sorted_field_indices.size();
         ++i) {
      size_t start = 0;
      size_t end = 0;
      HERON_RETURN_NOT_OK(SkipOneValue(&values, &start, &end));
      if (static_cast<int>(i) == sorted_field_indices[want]) {
        hash = api::HashCombine(
            hash, api::HashSerializedBytes(blob.data() + start, end - start));
        ++want;
      }
    }
    if (want != sorted_field_indices.size()) {
      return Status::IOError("grouping field index beyond tuple arity");
    }
    return hash;
  }
  return Status::IOError("serialized tuple has no values field");
}

Result<uint64_t> PeekTraceId(serde::BytesView tuple_bytes) {
  serde::WireDecoder dec(tuple_bytes);
  while (!dec.AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec.ReadTag());
    if (tag == 0) break;
    const uint32_t field = serde::TagFieldNumber(tag);
    if (field == kTdTraceId) {
      return dec.ReadUint64();
    }
    if (field == kTdValues) {
      // trace_id is serialized ahead of values; reaching the payload means
      // this tuple is untraced.
      return 0;
    }
    HERON_RETURN_NOT_OK(dec.SkipField(serde::TagWireType(tag)));
  }
  return 0;
}

Result<TaskId> PeekAckBatchDest(serde::BytesView ack_bytes) {
  serde::WireDecoder dec(ack_bytes);
  while (!dec.AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec.ReadTag());
    if (tag == 0) break;
    if (serde::TagFieldNumber(tag) == kAbDestTask) {
      return dec.ReadInt32();
    }
    HERON_RETURN_NOT_OK(dec.SkipField(serde::TagWireType(tag)));
  }
  return Status::NotFound("serialized ack batch has no dest_task field");
}

}  // namespace proto
}  // namespace heron
