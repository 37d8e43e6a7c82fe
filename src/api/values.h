#ifndef HERON_API_VALUES_H_
#define HERON_API_VALUES_H_

#include <cstdint>
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
ValueKind KindOf(const Value& v);

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

/// \brief Serializes one value as (kind varint, payload).
void EncodeValue(const Value& v, serde::WireEncoder* enc);

/// \brief Decodes one value written by EncodeValue into `out`, reusing
/// what `out` already holds: a string read into a slot that holds a string
/// is assigned into that string's capacity, so a warm slot decodes without
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
