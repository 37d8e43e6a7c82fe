#include "serde/wire.h"

#include <cstring>

namespace heron {
namespace serde {

void WireEncoder::WriteUint64Field(uint32_t field, uint64_t value) {
  char bytes[2 * kMaxVarintBytes];
  out_->append(bytes,
               static_cast<size_t>(PutVarintField(bytes, field, value) - bytes));
}

void WireEncoder::WriteInt64Field(uint32_t field, int64_t value) {
  WriteUint64Field(field, ZigZagEncode(value));
}

void WireEncoder::WriteInt32Field(uint32_t field, int32_t value) {
  WriteInt64Field(field, value);
}

void WireEncoder::WriteBoolField(uint32_t field, bool value) {
  WriteUint64Field(field, value ? 1 : 0);
}

void WireEncoder::WriteDoubleField(uint32_t field, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  char bytes[kMaxVarintBytes + sizeof(bits)];
  char* end = PutVarint(bytes, MakeTag(field, WireType::kFixed64));
  for (int i = 0; i < 8; ++i) {
    *end++ = static_cast<char>((bits >> (8 * i)) & 0xFF);
  }
  out_->append(bytes, static_cast<size_t>(end - bytes));
}

void WireEncoder::WriteBytesField(uint32_t field, BytesView value) {
  char head[2 * kMaxVarintBytes];
  out_->append(head, static_cast<size_t>(
                         PutBytesFieldHead(head, field, value.size()) - head));
  out_->append(value.data(), value.size());
}

Result<uint64_t> WireDecoder::ReadVarintSlow() {
  uint64_t value = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift >= 64) {
      return Status::IOError("varint too long");
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return Truncated();
}

Status WireDecoder::Truncated() {
  return Status::IOError("wire decode past end of buffer");
}

Status WireDecoder::InvalidTag() { return Status::IOError("invalid wire tag"); }

Result<int32_t> WireDecoder::ReadInt32() {
  HERON_ASSIGN_OR_RETURN(int64_t v, ReadInt64());
  if (v < INT32_MIN || v > INT32_MAX) {
    return Status::IOError("int32 field out of range");
  }
  return static_cast<int32_t>(v);
}

Result<bool> WireDecoder::ReadBool() {
  HERON_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint());
  return raw != 0;
}

Result<double> WireDecoder::ReadDouble() {
  if (pos_ + 8 > data_.size()) return Truncated();
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
  }
  pos_ += 8;
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Status WireDecoder::SkipField(WireType type) {
  switch (type) {
    case WireType::kVarint:
      return ReadVarint().status();
    case WireType::kFixed64:
      if (pos_ + 8 > data_.size()) return Truncated();
      pos_ += 8;
      return Status::OK();
    case WireType::kLengthDelimited:
      return ReadBytes().status();
    case WireType::kFixed32:
      if (pos_ + 4 > data_.size()) return Truncated();
      pos_ += 4;
      return Status::OK();
  }
  return Status::IOError("unknown wire type");
}

// -- Transport framing ---------------------------------------------------

namespace {

inline void PutU16(char* out, uint16_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
}

inline void PutU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

inline void PutU64(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

inline uint16_t GetU16(const char* in) {
  return static_cast<uint16_t>(static_cast<uint8_t>(in[0])) |
         static_cast<uint16_t>(static_cast<uint8_t>(in[1])) << 8;
}

inline uint32_t GetU32(const char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in[i])) << (8 * i);
  }
  return v;
}

inline uint64_t GetU64(const char* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in[i])) << (8 * i);
  }
  return v;
}

}  // namespace

void EncodeFrameHeader(const FrameHeader& header, char* out) {
  PutU16(out, kFrameMagic);
  out[2] = static_cast<char>(header.type);
  out[3] = static_cast<char>(header.dest_kind);
  PutU32(out + 4, header.payload_len);
  PutU32(out + 8, static_cast<uint32_t>(header.dest));
  PutU64(out + 12, header.trace_id);
}

void AppendFrameHeader(const FrameHeader& header, Buffer* out) {
  char wire[kFrameHeaderBytes];
  EncodeFrameHeader(header, wire);
  out->append(wire, kFrameHeaderBytes);
}

Status DecodeFrameHeader(BytesView data, FrameHeader* out) {
  if (data.size() < kFrameHeaderBytes) {
    return Status::IOError("frame header truncated");
  }
  if (GetU16(data.data()) != kFrameMagic) {
    return Status::IOError("bad frame magic (stream desync?)");
  }
  FrameHeader h;
  h.type = static_cast<uint8_t>(data[2]);
  h.dest_kind = static_cast<uint8_t>(data[3]);
  h.payload_len = GetU32(data.data() + 4);
  h.dest = static_cast<int32_t>(GetU32(data.data() + 8));
  h.trace_id = GetU64(data.data() + 12);
  if (h.payload_len > kMaxFramePayloadBytes) {
    return Status::IOError("frame payload length exceeds cap");
  }
  *out = h;
  return Status::OK();
}

Result<size_t> PeekFrameSize(BytesView data) {
  FrameHeader h;
  HERON_RETURN_NOT_OK(DecodeFrameHeader(data, &h));
  return kFrameHeaderBytes + static_cast<size_t>(h.payload_len);
}

}  // namespace serde
}  // namespace heron
