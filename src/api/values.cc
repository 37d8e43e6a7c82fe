#include "api/values.h"

#include "common/strings.h"

namespace heron {
namespace api {

namespace {
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvBytes(const void* data, size_t len, uint64_t seed = kFnvOffset) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}
}  // namespace

uint64_t HashSerializedBytes(const void* data, size_t len) {
  return FnvBytes(data, len);
}

uint64_t HashValue(const Value& v) {
  // The hash is defined over the value's canonical wire encoding (the
  // exact bytes PutValue writes), so the Stream Manager's lazy path —
  // which hashes serialized byte ranges without decoding (§V-A) — routes
  // identically to this decoded path. The head is encoded on the stack and
  // a string's payload is hashed where it lies; nothing is materialized.
  char head[internal::kMaxValueHeadBytes];
  const uint64_t h = FnvBytes(
      head, static_cast<size_t>(internal::PutValueHead(head, v) - head));
  if (const auto* s = std::get_if<std::string>(&v)) {
    return FnvBytes(s->data(), s->size(), h);
  }
  return h;
}

uint64_t HashCombine(uint64_t seed, uint64_t h) {
  // boost::hash_combine-style mix, 64-bit constants.
  return seed ^ (h + 0x9E3779B97F4A7C15ULL + (seed << 12) + (seed >> 4));
}

void EncodeValue(const Value& v, serde::WireEncoder* enc) {
  PutValue(enc->Extend(EncodedValueSize(v)), v);
}

Status DecodeValueInto(serde::WireDecoder* dec, Value* out) {
  HERON_ASSIGN_OR_RETURN(uint64_t kind_raw, dec->ReadVarint());
  switch (static_cast<ValueKind>(kind_raw)) {
    case ValueKind::kInt64: {
      HERON_ASSIGN_OR_RETURN(uint64_t raw, dec->ReadVarint());
      *out = serde::ZigZagDecode(raw);
      return Status::OK();
    }
    case ValueKind::kDouble: {
      HERON_ASSIGN_OR_RETURN(double d, dec->ReadDouble());
      *out = d;
      return Status::OK();
    }
    case ValueKind::kBool: {
      HERON_ASSIGN_OR_RETURN(uint64_t raw, dec->ReadVarint());
      *out = raw != 0;
      return Status::OK();
    }
    case ValueKind::kString: {
      HERON_ASSIGN_OR_RETURN(serde::BytesView bytes, dec->ReadBytes());
      if (auto* s = std::get_if<std::string>(out)) {
        s->assign(bytes.data(), bytes.size());
      } else {
        out->emplace<std::string>(bytes);
      }
      return Status::OK();
    }
  }
  return Status::IOError(StrFormat("unknown value kind %llu",
                                   static_cast<unsigned long long>(kind_raw)));
}

Result<Value> DecodeValue(serde::WireDecoder* dec) {
  Value v;
  HERON_RETURN_NOT_OK(DecodeValueInto(dec, &v));
  return v;
}

std::string ValueToString(const Value& v) {
  switch (KindOf(v)) {
    case ValueKind::kInt64:
      return StrFormat("%lld", static_cast<long long>(std::get<int64_t>(v)));
    case ValueKind::kDouble:
      return StrFormat("%g", std::get<double>(v));
    case ValueKind::kBool:
      return std::get<bool>(v) ? "true" : "false";
    case ValueKind::kString:
      return StrFormat("\"%s\"", std::get<std::string>(v).c_str());
  }
  return "?";
}

size_t ValueByteSize(const Value& v) {
  switch (KindOf(v)) {
    case ValueKind::kInt64:
      return sizeof(int64_t);
    case ValueKind::kDouble:
      return sizeof(double);
    case ValueKind::kBool:
      return 1;
    case ValueKind::kString:
      return std::get<std::string>(v).size();
  }
  return 0;
}

}  // namespace api
}  // namespace heron
