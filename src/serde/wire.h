#ifndef HERON_SERDE_WIRE_H_
#define HERON_SERDE_WIRE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace heron {
namespace serde {

/// Serialized bytes are carried in std::string buffers; views are
/// std::string_view. This keeps the transport layer allocation-friendly
/// (buffers are recycled through BufferPool) and zero-copy on the read
/// path (decoders never copy payload bytes).
using Buffer = std::string;
using BytesView = std::string_view;

/// \brief Wire types, following the Protocol Buffers encoding.
enum class WireType : uint8_t {
  kVarint = 0,
  kFixed64 = 1,
  kLengthDelimited = 2,
  kFixed32 = 5,
};

/// Combines a field number and wire type into a tag varint.
constexpr uint32_t MakeTag(uint32_t field_number, WireType type) {
  return (field_number << 3) | static_cast<uint32_t>(type);
}
constexpr uint32_t TagFieldNumber(uint32_t tag) { return tag >> 3; }
constexpr WireType TagWireType(uint32_t tag) {
  return static_cast<WireType>(tag & 0x7);
}

/// ZigZag mapping for signed varints.
constexpr uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
constexpr int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Longest varint: ceil(64 / 7) bytes.
inline constexpr size_t kMaxVarintBytes = 10;

/// Bytes the varint encoding of `value` takes (1 to 10): one per started
/// group of 7 significant bits.
constexpr size_t VarintSize(uint64_t value) {
  return static_cast<size_t>((std::bit_width(value | 1) * 9 + 64) / 64);
}

/// Writes the varint encoding of `value` at `out`, which must have
/// VarintSize(value) bytes of room; returns the byte past it.
inline char* PutVarint(char* out, uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<char>(value | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<char>(value);
  return out;
}

/// Bytes of a varint field: tag, then the value.
constexpr size_t VarintFieldSize(uint32_t field, uint64_t value) {
  return VarintSize(MakeTag(field, WireType::kVarint)) + VarintSize(value);
}

/// Bytes of a length-delimited field with a `len`-byte payload.
constexpr size_t BytesFieldSize(uint32_t field, size_t len) {
  return VarintSize(MakeTag(field, WireType::kLengthDelimited)) +
         VarintSize(len) + len;
}

/// Writes a varint field, tag then value, at `out` (VarintFieldSize bytes
/// of room); returns the byte past it.
inline char* PutVarintField(char* out, uint32_t field, uint64_t value) {
  return PutVarint(PutVarint(out, MakeTag(field, WireType::kVarint)), value);
}

/// Writes the tag and length prefix of a length-delimited field at `out`;
/// the caller writes the `len` payload bytes after them.
inline char* PutBytesFieldHead(char* out, uint32_t field, size_t len) {
  return PutVarint(PutVarint(out, MakeTag(field, WireType::kLengthDelimited)),
                   len);
}

/// \brief Appends protobuf-encoded fields to a Buffer.
///
/// The encoder never owns its buffer: the Stream Manager hands it pooled
/// buffers so that steady-state serialization performs no heap allocation
/// (§V-A optimization 1). Nested messages are encoded size-first: a
/// message computes its exact byte size, grows the buffer once with
/// Extend and writes the tag, the final length prefix and the body
/// through a cursor, so no payload is ever moved after it is written.
class WireEncoder {
 public:
  explicit WireEncoder(Buffer* out) : out_(out) {}

  void WriteVarint(uint64_t value) {
    char bytes[kMaxVarintBytes];
    out_->append(bytes, static_cast<size_t>(PutVarint(bytes, value) - bytes));
  }
  void WriteTag(uint32_t field_number, WireType type) {
    WriteVarint(MakeTag(field_number, type));
  }

  /// Field writers: tag + payload.
  void WriteUint64Field(uint32_t field, uint64_t value);
  void WriteInt64Field(uint32_t field, int64_t value);  // ZigZag.
  void WriteInt32Field(uint32_t field, int32_t value);  // ZigZag.
  void WriteBoolField(uint32_t field, bool value);
  void WriteDoubleField(uint32_t field, double value);  // Fixed64.
  /// Tag and length prefix in one append, then the payload. A nested
  /// message without a size-first writer of its own is serialized into a
  /// scratch buffer and written through here.
  void WriteBytesField(uint32_t field, BytesView value);
  void WriteStringField(uint32_t field, std::string_view value) {
    WriteBytesField(field, value);
  }

  /// Grows the buffer by `n` bytes and returns a pointer to the first of
  /// them, for the caller to fill. The pointer is valid until the buffer
  /// next changes size.
  char* Extend(size_t n) {
    const size_t old_size = out_->size();
    out_->resize(old_size + n);
    return out_->data() + old_size;
  }

  size_t size() const { return out_->size(); }
  Buffer* buffer() { return out_; }

 private:
  Buffer* out_;
};

// -- Transport framing ---------------------------------------------------

/// \brief Fixed-size header prefixed to every payload that crosses the
/// transport fabric (the wire form of a proto::Envelope's metadata).
///
/// Layout, little-endian, kFrameHeaderBytes total:
///
///     offset  size  field
///     ------  ----  --------------------------------------------------
///       0       2   magic 0x4846 ("HF") — tear/desync detector
///       2       1   type       (proto::MessageType as u8)
///       3       1   dest_kind  (0 = none, 1 = task-addressed,
///                               2 = checkpoint barrier)
///       4       4   payload_len u32
///       8       4   dest        i32 (task id; -1 when dest_kind == 0;
///                               for dest_kind == 2, the barrier's
///                               destination task or -1 for a fan-out
///                               request to the receiving SMGR)
///      12       8   trace_id    u64 (0 = untraced)
///
/// The header is everything a forwarding Stream Manager needs to route:
/// receivers that only relay a frame never look past these 20 bytes (the
/// zero-copy invariant asserted by `smgr.payload_touches`).
struct FrameHeader {
  uint8_t type = 0;
  uint8_t dest_kind = 0;  ///< 0 = unaddressed, 1 = dest is a task id,
                          ///< 2 = checkpoint barrier (dest may be -1).
  uint32_t payload_len = 0;
  int32_t dest = -1;
  uint64_t trace_id = 0;

  bool operator==(const FrameHeader& o) const {
    return type == o.type && dest_kind == o.dest_kind &&
           payload_len == o.payload_len && dest == o.dest &&
           trace_id == o.trace_id;
  }
};

inline constexpr size_t kFrameHeaderBytes = 20;
inline constexpr uint16_t kFrameMagic = 0x4846;
/// Frames above this payload size are rejected at decode: a desynced or
/// corrupted stream must not drive a multi-gigabyte allocation.
inline constexpr uint32_t kMaxFramePayloadBytes = 256u << 20;

/// Writes the 20-byte wire form of `header` into `out`.
void EncodeFrameHeader(const FrameHeader& header, char* out);
/// Appends the 20-byte wire form of `header` to `out`.
void AppendFrameHeader(const FrameHeader& header, Buffer* out);

/// Decodes a header from the first kFrameHeaderBytes of `data`.
/// kIOError on truncation, bad magic or an oversized payload length.
Status DecodeFrameHeader(BytesView data, FrameHeader* out);

/// Header-only peek: total frame size (header + payload) implied by the
/// header at the front of `data`. Same validation as DecodeFrameHeader.
Result<size_t> PeekFrameSize(BytesView data);

/// \brief Cursor over serialized bytes; reads fields without copying.
///
/// Decoding errors (truncation, wire-type mismatches) surface as Status —
/// a malformed message from a remote Stream Manager must never crash the
/// process.
///
/// Varint reads are inline. A single-byte varint returns at once; with at
/// least kMaxVarintBytes left, a varint is decoded by a bounded loop with
/// no per-byte bounds check; closer to the end, and for a varint that runs
/// past 10 bytes, the out-of-line byte loop decides. Both paths accept the
/// same inputs and stop at the same position: the tenth byte's bits above
/// bit 63 are dropped, an eleventh byte is "varint too long", and running
/// out of input is truncation.
class WireDecoder {
 public:
  explicit WireDecoder(BytesView data) : data_(data), pos_(0) {}

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t position() const { return pos_; }

  Result<uint64_t> ReadVarint() {
    if (pos_ < data_.size()) {
      const auto* p = reinterpret_cast<const uint8_t*>(data_.data()) + pos_;
      uint64_t value = p[0];
      if (value < 0x80) {
        ++pos_;
        return value;
      }
      if (data_.size() - pos_ >= kMaxVarintBytes) {
        value &= 0x7F;
        for (size_t i = 1; i < kMaxVarintBytes; ++i) {
          const uint64_t byte = p[i];
          value |= (byte & 0x7F) << (7 * i);
          if (byte < 0x80) {
            pos_ += i + 1;
            return value;
          }
        }
      }
    }
    return ReadVarintSlow();
  }

  /// Reads the next tag; returns 0 at end of input.
  Result<uint32_t> ReadTag() {
    if (AtEnd()) return static_cast<uint32_t>(0);
    HERON_ASSIGN_OR_RETURN(uint64_t tag, ReadVarint());
    if (tag == 0 || tag > UINT32_MAX) return InvalidTag();
    return static_cast<uint32_t>(tag);
  }

  Result<uint64_t> ReadUint64() { return ReadVarint(); }
  Result<int64_t> ReadInt64() {  // ZigZag.
    HERON_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint());
    return ZigZagDecode(raw);
  }
  Result<int32_t> ReadInt32();  // ZigZag.
  Result<bool> ReadBool();
  Result<double> ReadDouble();
  /// Returns a view into the underlying buffer (no copy).
  Result<BytesView> ReadBytes() {
    HERON_ASSIGN_OR_RETURN(uint64_t len, ReadVarint());
    // Compare against the bytes left: `pos_ + len` wraps for a length near
    // 2^64 and would move the read position backwards.
    if (len > data_.size() - pos_) return Truncated();
    const BytesView view(data_.data() + pos_, len);
    pos_ += len;
    return view;
  }

  /// Skips a field of the given wire type; used by lazy/partial parsing to
  /// hop over everything except the fields of interest (§V-A optimization 2).
  Status SkipField(WireType type);

 private:
  /// The byte-at-a-time varint loop: inputs within kMaxVarintBytes of the
  /// end, and varints the inline path could not finish.
  Result<uint64_t> ReadVarintSlow();
  static Status Truncated();
  static Status InvalidTag();

  BytesView data_;
  size_t pos_;
};

}  // namespace serde
}  // namespace heron

#endif  // HERON_SERDE_WIRE_H_
