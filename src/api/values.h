#ifndef HERON_API_VALUES_H_
#define HERON_API_VALUES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "serde/wire.h"

namespace heron {
namespace api {

/// \brief One field of a tuple.
///
/// Heron tuples are schemaless on the wire; the supported scalar types
/// cover the workloads in the paper (word strings, counts, timestamps,
/// flags, scores). Strings dominate the WordCount benchmarks, so the
/// variant keeps std::string inline (no extra indirection).
using Value = std::variant<int64_t, double, bool, std::string>;

/// \brief The payload of a tuple: an ordered list of values.
using Values = std::vector<Value>;

/// Index of each alternative in Value, used as the wire type discriminator.
enum class ValueKind : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kBool = 2,
  kString = 3,
};

/// \brief Returns the kind of a value.
inline ValueKind KindOf(const Value& v) {
  return static_cast<ValueKind>(v.index());
}

/// \brief 64-bit stable hash of a value: FNV-1a over the value's canonical
/// wire encoding (exactly the bytes EncodeValue writes). Fields grouping
/// routes on this hash; defining it over the encoding lets the Stream
/// Manager hash serialized byte ranges without decoding (§V-A) and land on
/// the same destination.
uint64_t HashValue(const Value& v);

/// \brief FNV-1a over raw serialized bytes; HashValue(v) ==
/// HashSerializedBytes(encoding of v). Used by the lazy routing path.
uint64_t HashSerializedBytes(const void* data, size_t len);

/// \brief Combines field hashes for multi-field grouping keys.
uint64_t HashCombine(uint64_t seed, uint64_t h);

/// \brief Bytes EncodeValue writes for `v`.
inline size_t EncodedValueSize(const Value& v) {
  switch (KindOf(v)) {
    case ValueKind::kInt64:
      return 1 + serde::VarintSize(serde::ZigZagEncode(std::get<int64_t>(v)));
    case ValueKind::kDouble:
      return 1 + sizeof(double);
    case ValueKind::kBool:
      return 2;
    case ValueKind::kString: {
      const size_t len = std::get<std::string>(v).size();
      return 1 + serde::VarintSize(len) + len;
    }
  }
  return 0;
}

namespace internal {

/// Most bytes PutValueHead writes: the kind, then a varint or a double.
inline constexpr size_t kMaxValueHeadBytes = 1 + serde::kMaxVarintBytes;

/// Writes a value's encoding up to a string's payload — the kind, then the
/// scalar payload or the string's length — and returns the byte past it.
inline char* PutValueHead(char* out, const Value& v) {
  *out++ = static_cast<char>(KindOf(v));  // Every kind is a 1-byte varint.
  switch (KindOf(v)) {
    case ValueKind::kInt64:
      return serde::PutVarint(out, serde::ZigZagEncode(std::get<int64_t>(v)));
    case ValueKind::kDouble: {
      // The fixed64 layout of WireEncoder::WriteDoubleField, without a tag.
      uint64_t bits;
      const double d = std::get<double>(v);
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        *out++ = static_cast<char>((bits >> (8 * i)) & 0xFF);
      }
      return out;
    }
    case ValueKind::kBool:
      *out++ = static_cast<char>(std::get<bool>(v) ? 1 : 0);
      return out;
    case ValueKind::kString:
      return serde::PutVarint(out, std::get<std::string>(v).size());
  }
  return out;
}

}  // namespace internal

/// \brief Writes the encoding of one value, (kind varint, payload), at
/// `out`, which must have EncodedValueSize(v) bytes of room; returns the
/// byte past it. The one value encoder: EncodeValue, the tuple serializer
/// and HashValue all produce or hash exactly these bytes.
inline char* PutValue(char* out, const Value& v) {
  out = internal::PutValueHead(out, v);
  if (const auto* s = std::get_if<std::string>(&v)) {
    std::memcpy(out, s->data(), s->size());
    out += s->size();
  }
  return out;
}

/// \brief Appends the encoding of one value (PutValue's bytes).
void EncodeValue(const Value& v, serde::WireEncoder* enc);

/// \brief Decodes one value written by EncodeValue into `out`, reusing
/// what `out` already holds: a scalar read into a slot of its own kind is
/// assigned in place, and a string read into a slot that holds a string is
/// assigned into that string's capacity, so a warm slot decodes without
/// allocating. On error `out` is left unchanged.
Status DecodeValueInto(serde::WireDecoder* dec, Value* out);

/// \brief Decodes one value written by EncodeValue.
Result<Value> DecodeValue(serde::WireDecoder* dec);

/// \brief Human-readable rendering ("42", "3.14", "true", "\"word\"").
std::string ValueToString(const Value& v);

/// \brief Approximate in-memory size in bytes, used for cache accounting.
size_t ValueByteSize(const Value& v);

}  // namespace api
}  // namespace heron

#endif  // HERON_API_VALUES_H_
