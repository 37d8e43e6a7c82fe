#include "serde/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <ostream>
#include <vector>

#include "common/random.h"
#include "instance/outbox.h"
#include "packing/packing_plan.h"
#include "proto/messages.h"

namespace heron {
namespace serde {
namespace {

TEST(WireTest, VarintRoundTripEdges) {
  for (const uint64_t v :
       std::vector<uint64_t>{0, 1, 127, 128, 16383, 16384, uint64_t{1} << 32,
                             UINT64_MAX}) {
    Buffer buf;
    WireEncoder enc(&buf);
    enc.WriteVarint(v);
    WireDecoder dec(buf);
    EXPECT_EQ(*dec.ReadVarint(), v);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(WireTest, ZigZagMapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  for (const int64_t v :
       std::vector<int64_t>{0, 1, -1, INT64_MAX, INT64_MIN, 123456789,
                            -987654321}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(WireTest, TagPacksFieldAndWireType) {
  const uint32_t tag = MakeTag(5, WireType::kLengthDelimited);
  EXPECT_EQ(TagFieldNumber(tag), 5u);
  EXPECT_EQ(TagWireType(tag), WireType::kLengthDelimited);
}

TEST(WireTest, AllFieldTypesRoundTrip) {
  Buffer buf;
  WireEncoder enc(&buf);
  enc.WriteUint64Field(1, 999);
  enc.WriteInt64Field(2, -12345);
  enc.WriteInt32Field(3, -7);
  enc.WriteBoolField(4, true);
  enc.WriteDoubleField(5, 3.14159);
  enc.WriteBytesField(6, "payload");

  WireDecoder dec(buf);
  EXPECT_EQ(TagFieldNumber(*dec.ReadTag()), 1u);
  EXPECT_EQ(*dec.ReadUint64(), 999u);
  EXPECT_EQ(TagFieldNumber(*dec.ReadTag()), 2u);
  EXPECT_EQ(*dec.ReadInt64(), -12345);
  EXPECT_EQ(TagFieldNumber(*dec.ReadTag()), 3u);
  EXPECT_EQ(*dec.ReadInt32(), -7);
  EXPECT_EQ(TagFieldNumber(*dec.ReadTag()), 4u);
  EXPECT_TRUE(*dec.ReadBool());
  EXPECT_EQ(TagFieldNumber(*dec.ReadTag()), 5u);
  EXPECT_DOUBLE_EQ(*dec.ReadDouble(), 3.14159);
  EXPECT_EQ(TagFieldNumber(*dec.ReadTag()), 6u);
  EXPECT_EQ(*dec.ReadBytes(), "payload");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(WireTest, ReadBytesIsZeroCopyView) {
  Buffer buf;
  WireEncoder enc(&buf);
  enc.WriteBytesField(1, "abc");
  WireDecoder dec(buf);
  dec.ReadTag().ValueOrDie();
  const BytesView view = *dec.ReadBytes();
  EXPECT_GE(view.data(), buf.data());
  EXPECT_LT(view.data(), buf.data() + buf.size());
}

TEST(WireTest, TruncatedInputsFailCleanly) {
  Buffer buf;
  WireEncoder enc(&buf);
  enc.WriteBytesField(1, std::string(100, 'x'));
  // Chop the payload.
  const Buffer truncated = buf.substr(0, buf.size() - 50);
  WireDecoder dec(truncated);
  dec.ReadTag().ValueOrDie();
  EXPECT_TRUE(dec.ReadBytes().status().IsIOError());

  // Truncated varint.
  const Buffer half_varint("\x80");
  WireDecoder dec2(half_varint);
  EXPECT_TRUE(dec2.ReadVarint().status().IsIOError());

  // Truncated fixed64.
  const Buffer half_fixed("\x01\x02\x03");
  WireDecoder dec3(half_fixed);
  EXPECT_TRUE(dec3.ReadDouble().status().IsIOError());
}

TEST(WireTest, SkipFieldHopsEveryWireType) {
  Buffer buf;
  WireEncoder enc(&buf);
  enc.WriteUint64Field(1, 300);
  enc.WriteDoubleField(2, 1.5);
  enc.WriteBytesField(3, "skip me");
  enc.WriteBoolField(4, true);

  WireDecoder dec(buf);
  for (int field = 1; field <= 3; ++field) {
    const uint32_t tag = *dec.ReadTag();
    EXPECT_EQ(TagFieldNumber(tag), static_cast<uint32_t>(field));
    ASSERT_TRUE(dec.SkipField(TagWireType(tag)).ok());
  }
  EXPECT_EQ(TagFieldNumber(*dec.ReadTag()), 4u);
  EXPECT_TRUE(*dec.ReadBool());
}

TEST(WireTest, EmptyTagAtEndOfInput) {
  WireDecoder dec(BytesView{});
  EXPECT_EQ(*dec.ReadTag(), 0u);
}

TEST(WireTest, VarintSizeMatchesEncoding) {
  for (int bits = 0; bits <= 64; ++bits) {
    const uint64_t top = bits == 0 ? 0 : ~uint64_t{0} >> (64 - bits);
    for (const uint64_t v : {top, top >> 1, (top >> 1) + 1}) {
      Buffer written;
      WireEncoder enc(&written);
      enc.WriteVarint(v);
      EXPECT_EQ(VarintSize(v), written.size()) << v;
      char put[kMaxVarintBytes];
      EXPECT_EQ(BytesView(put, static_cast<size_t>(PutVarint(put, v) - put)),
                written)
          << v;
    }
  }
}

// -- Varint decode: fast path vs byte loop ---------------------------------
//
// A varint with at least kMaxVarintBytes left takes the inline bounded
// loop; closer to the end it takes the byte loop. Both must read exactly
// what the byte loop below reads, on every input.

/// Outcome of one varint read: status code, value (0 on error) and the
/// read position afterwards.
struct VarintRead {
  StatusCode code;
  uint64_t value;
  size_t pos;

  bool operator==(const VarintRead& o) const {
    return code == o.code && value == o.value && pos == o.pos;
  }
};

std::ostream& operator<<(std::ostream& os, const VarintRead& r) {
  return os << "{code " << static_cast<int>(r.code) << ", value " << r.value
            << ", pos " << r.pos << "}";
}

/// The reference: one byte at a time, bounds-checked, the tenth byte's
/// bits above bit 63 dropped, an eleventh byte rejected.
VarintRead ReferenceRead(BytesView data, size_t pos) {
  uint64_t value = 0;
  int shift = 0;
  while (pos < data.size()) {
    const uint8_t byte = static_cast<uint8_t>(data[pos++]);
    if (shift >= 64) return {StatusCode::kIOError, 0, pos};
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return {StatusCode::kOk, value, pos};
    shift += 7;
  }
  return {StatusCode::kIOError, 0, pos};
}

/// Reads a one-byte varint, then the varint under test, so the decoder
/// starts it mid-buffer.
VarintRead DecoderRead(BytesView data) {
  WireDecoder dec(data);
  EXPECT_TRUE(dec.ReadVarint().ok());
  const Result<uint64_t> r = dec.ReadVarint();
  return {r.status().code(), r.ok() ? *r : 0, dec.position()};
}

/// Encodings of every width from 1 to 10: canonical ones at both ends of
/// each width, non-canonical ones padded with empty groups, tenth bytes
/// carrying bits above bit 63, and overlong 11-byte varints.
std::vector<Buffer> VarintEncodings() {
  std::vector<Buffer> out;
  for (int width = 1; width <= 10; ++width) {
    const int bits = std::min(7 * width, 64);
    for (const uint64_t v :
         {uint64_t{1} << (7 * (width - 1)), ~uint64_t{0} >> (64 - bits)}) {
      Buffer b;
      WireEncoder(&b).WriteVarint(v);
      out.push_back(b);
    }
    // Value 5 written in `width` bytes: empty groups after the first.
    out.push_back(width == 1 ? Buffer("\x05")
                             : "\x85" +
                                   Buffer(static_cast<size_t>(width - 2),
                                          '\x80') +
                                   '\0');
  }
  out.push_back(Buffer("\x00", 1));
  for (const char last : {'\x02', '\x03', '\x7F'}) {
    Buffer tenth(9, '\xFF');
    tenth.push_back(last);  // Bits above 63 are dropped, not rejected.
    out.push_back(tenth);
  }
  Buffer overlong(10, '\x80');
  overlong.push_back('\x00');
  out.push_back(overlong);
  out.push_back(Buffer(10, '\xFF') + '\x01');
  return out;
}

TEST(WireTest, VarintFastPathMatchesByteLoop) {
  const std::vector<Buffer> tails = {
      Buffer(), Buffer(10, '\0'), Buffer(10, '\xFF'),
      Buffer(9, '\x80') + '\x01', Buffer(12, '\x7F')};
  int fast_reads = 0;
  for (const Buffer& encoding : VarintEncodings()) {
    // Every truncation, and the whole encoding.
    for (size_t len = 0; len <= encoding.size(); ++len) {
      const Buffer varint = "\x01" + encoding.substr(0, len);
      for (const Buffer& tail : tails) {
        const Buffer data = varint + tail;
        EXPECT_EQ(DecoderRead(data), ReferenceRead(data, 1))
            << "encoding of " << encoding.size() << " bytes cut to " << len
            << ", tail of " << tail.size();
        if (data.size() - 1 >= kMaxVarintBytes) ++fast_reads;
      }
      if (len < encoding.size()) continue;
      // A complete varint reads the same with room after it (fast path)
      // as at the very end of the buffer (byte loop).
      EXPECT_EQ(DecoderRead(varint + Buffer(10, '\0')), DecoderRead(varint))
          << "encoding of " << encoding.size() << " bytes";
    }
  }
  EXPECT_GT(fast_reads, 0);
}

TEST(WireTest, VarintFastPathStatusesMatchByteLoop) {
  // The statuses themselves, not just their codes: a varint cut short is
  // truncation and an eleventh byte is "too long", on both paths.
  const Buffer overlong = Buffer(10, '\xFF') + '\x01';
  for (const Buffer& data : {overlong, overlong + Buffer(10, '\0')}) {
    WireDecoder dec(data);
    const Status st = dec.ReadVarint().status();
    EXPECT_TRUE(st.IsIOError());
    EXPECT_NE(st.ToString().find("varint too long"), std::string::npos);
    EXPECT_EQ(dec.position(), 11u);
  }
  const Buffer cut(9, '\xFF');
  WireDecoder cut_dec(cut);
  const Status st = cut_dec.ReadVarint().status();
  EXPECT_NE(st.ToString().find("past end of buffer"), std::string::npos);
  // A tag above 32 bits is invalid on the fast path too.
  Buffer big_tag;
  WireEncoder(&big_tag).WriteVarint(uint64_t{1} << 32);
  big_tag.append(10, '\0');
  WireDecoder tag_dec(big_tag);
  EXPECT_TRUE(tag_dec.ReadTag().status().IsIOError());
}

/// Property sweep: random field sequences round-trip.
class WireFuzzRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzRoundTrip, RandomFieldSequences) {
  Random rng(GetParam());
  Buffer buf;
  WireEncoder enc(&buf);
  struct Written {
    int kind;
    uint64_t u;
    int64_t i;
    double d;
    std::string s;
  };
  std::vector<Written> written;
  for (int f = 1; f <= 50; ++f) {
    Written w;
    w.kind = static_cast<int>(rng.NextBelow(4));
    switch (w.kind) {
      case 0:
        w.u = rng.NextUint64();
        enc.WriteUint64Field(static_cast<uint32_t>(f), w.u);
        break;
      case 1:
        w.i = static_cast<int64_t>(rng.NextUint64());
        enc.WriteInt64Field(static_cast<uint32_t>(f), w.i);
        break;
      case 2:
        w.d = rng.NextDouble() * 1e6 - 5e5;
        enc.WriteDoubleField(static_cast<uint32_t>(f), w.d);
        break;
      default:
        w.s = std::string(rng.NextBelow(200), 'a' + (f % 26));
        enc.WriteBytesField(static_cast<uint32_t>(f), w.s);
        break;
    }
    written.push_back(std::move(w));
  }
  WireDecoder dec(buf);
  for (int f = 1; f <= 50; ++f) {
    const uint32_t tag = *dec.ReadTag();
    ASSERT_EQ(TagFieldNumber(tag), static_cast<uint32_t>(f));
    const Written& w = written[static_cast<size_t>(f - 1)];
    switch (w.kind) {
      case 0:
        EXPECT_EQ(*dec.ReadUint64(), w.u);
        break;
      case 1:
        EXPECT_EQ(*dec.ReadInt64(), w.i);
        break;
      case 2:
        EXPECT_DOUBLE_EQ(*dec.ReadDouble(), w.d);
        break;
      default:
        EXPECT_EQ(*dec.ReadBytes(), w.s);
        break;
    }
  }
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// -- Wire format pins -------------------------------------------------------
//
// The size-first message encoders must write byte for byte what the
// generic field writers write. Fields grouping hashes these bytes and the
// deterministic outputs compare them, so a changed byte is a changed
// result.

/// An integer of random significant width, 0 to 64 bits: every varint
/// width occurs.
uint64_t RandomWidth(Random* rng) {
  const uint64_t bits = rng->NextBelow(65);
  return bits == 0 ? 0 : rng->NextUint64() >> (64 - bits);
}

int64_t RandomSigned(Random* rng) {
  const auto magnitude = static_cast<int64_t>(RandomWidth(rng) >> 1);
  return rng->NextBool() ? magnitude : -magnitude - 1;
}

/// String lengths at every width change of a length prefix (127/128,
/// 16383/16384) and around them, so the values blob's and the tuple's own
/// prefixes cross the same lines.
std::string RandomString(Random* rng) {
  static constexpr size_t kLengths[] = {
      0,   1,   15,  16,  100, 120,  121,   122,   123,   124,   125,  126,
      127, 128, 129, 1024, 16380, 16383, 16384, 20000};
  std::string s(kLengths[rng->NextBelow(std::size(kLengths))], '\0');
  for (char& c : s) c = static_cast<char>(rng->NextBelow(256));
  return s;
}

/// 0-3 roots, traced or not, 0-5 values of every kind.
proto::TupleDataMsg RandomTuple(Random* rng) {
  proto::TupleDataMsg msg;
  msg.tuple_key = RandomWidth(rng);
  const size_t roots = rng->NextBelow(4);
  for (size_t i = 0; i < roots; ++i) msg.roots.push_back(RandomWidth(rng));
  msg.emit_time_nanos = RandomSigned(rng);
  if (rng->NextBool()) msg.trace_id = RandomWidth(rng) | 1;
  const size_t values = rng->NextBelow(6);
  for (size_t i = 0; i < values; ++i) {
    switch (rng->NextBelow(4)) {
      case 0:
        msg.values.emplace_back(RandomSigned(rng));
        break;
      case 1: {
        const double specials[] = {0.0, -0.0, 2.75, -1e300, HUGE_VAL,
                                   rng->NextDouble() * 2e9 - 1e9};
        msg.values.emplace_back(specials[rng->NextBelow(std::size(specials))]);
        break;
      }
      case 2:
        msg.values.emplace_back(rng->NextBool());
        break;
      default:
        msg.values.emplace_back(RandomString(rng));
    }
  }
  return msg;
}

/// TupleDataMsg's documented layout from the field writers: key, roots,
/// emit time, trace id when nonzero, then the values blob (varint count,
/// EncodeValue each).
Buffer ReferenceTuple(const proto::TupleDataMsg& msg) {
  Buffer blob;
  WireEncoder values(&blob);
  values.WriteVarint(msg.values.size());
  for (const api::Value& v : msg.values) api::EncodeValue(v, &values);
  Buffer out;
  WireEncoder enc(&out);
  enc.WriteUint64Field(1, msg.tuple_key);
  for (const api::TupleKey root : msg.roots) enc.WriteUint64Field(2, root);
  enc.WriteInt64Field(3, msg.emit_time_nanos);
  if (msg.trace_id != 0) enc.WriteUint64Field(5, msg.trace_id);
  enc.WriteBytesField(4, blob);
  return out;
}

TEST(WireFormatTest, TupleBytesMatchFieldWriters) {
  namespace tbf = proto::tuple_batch_fields;
  Random rng(0x5EED);
  smgr::Transport transport;
  smgr::EnvelopeChannel smgr_inbound(4);
  ASSERT_TRUE(transport.RegisterSmgr(0, &smgr_inbound).ok());
  // One tuple per batch: every emit ships a batch holding just that tuple.
  instance::Outbox outbox(/*task=*/4, "word", /*container=*/0, &transport,
                          /*flush_tuples=*/1);
  Buffer batch_header;
  WireEncoder header(&batch_header);
  header.WriteInt32Field(tbf::kSrcTask, 4);
  header.WriteInt32Field(tbf::kDestTask, -1);
  header.WriteBytesField(tbf::kStream, kDefaultStreamId);
  header.WriteBytesField(tbf::kSrcComponent, "word");
  for (int i = 0; i < 3000; ++i) {
    const proto::TupleDataMsg msg = RandomTuple(&rng);
    const Buffer want = ReferenceTuple(msg);
    const Buffer bytes = msg.SerializeAsBuffer();
    ASSERT_EQ(bytes, want) << "tuple " << i;
    EXPECT_EQ(msg.ByteSize(), want.size());

    Buffer field;
    WireEncoder(&field).WriteBytesField(tbf::kTuple, want);
    // AppendAsField appends after what the buffer already holds.
    Buffer appended("xyz");
    WireEncoder append_enc(&appended);
    msg.AppendAsField(tbf::kTuple, &append_enc);
    ASSERT_EQ(appended, "xyz" + field) << "tuple " << i;

    outbox.EmitTuple(kDefaultStreamId, msg);
    std::optional<proto::Envelope> env = smgr_inbound.TryRecv();
    ASSERT_TRUE(env.has_value());
    ASSERT_EQ(env->payload, batch_header + field) << "tuple " << i;
  }
}

TEST(WireFormatTest, AckBatchBytesMatchFieldWriters) {
  Random rng(0xAC4B);
  for (int i = 0; i < 3000; ++i) {
    proto::AckBatchMsg batch;
    batch.dest_task = static_cast<TaskId>(rng.NextBelow(1 << 16)) - 1;
    const size_t n = rng.NextBelow(20);
    for (size_t u = 0; u < n; ++u) {
      batch.updates.push_back(
          {RandomWidth(&rng), RandomWidth(&rng), rng.NextBool(0.2)});
    }
    Buffer want;
    WireEncoder enc(&want);
    enc.WriteInt32Field(1, batch.dest_task);
    for (const proto::AckUpdate& u : batch.updates) {
      Buffer update;
      WireEncoder update_enc(&update);
      update_enc.WriteUint64Field(1, u.root);
      update_enc.WriteUint64Field(2, u.xor_value);
      update_enc.WriteBoolField(3, u.fail);
      enc.WriteBytesField(2, update);
    }
    ASSERT_EQ(batch.SerializeAsBuffer(), want) << "batch " << i;
  }
}

TEST(WireFormatTest, PackingPlanBytesMatchFieldWriters) {
  Random rng(0x9ACC);
  for (int i = 0; i < 300; ++i) {
    // Milli-cores kept beside each demand: the wire carries them.
    std::vector<std::vector<int64_t>> instance_milli;
    std::vector<int64_t> container_milli;
    std::vector<packing::ContainerPlan> containers(rng.NextBelow(5));
    TaskId next_task = 0;
    for (size_t c = 0; c < containers.size(); ++c) {
      packing::ContainerPlan& plan = containers[c];
      plan.id = static_cast<ContainerId>(c);
      instance_milli.emplace_back();
      // Up to 200 instances: a container's own prefix crosses 127/128 and
      // 16383/16384 along with its instances'.
      const size_t instances = rng.NextBelow(rng.NextBool(0.2) ? 200 : 7);
      for (size_t k = 0; k < instances; ++k) {
        const auto milli = static_cast<int64_t>(rng.NextBelow(1ull << 40));
        instance_milli.back().push_back(milli);
        packing::InstancePlan inst;
        inst.task_id = next_task++;
        inst.component = RandomString(&rng).substr(0, 300);
        inst.component_index = static_cast<int>(k);
        inst.resources.cpu = static_cast<double>(milli) / 1000.0;
        inst.resources.ram_mb = RandomSigned(&rng);
        inst.resources.disk_mb = RandomSigned(&rng);
        plan.instances.push_back(std::move(inst));
      }
      container_milli.push_back(
          static_cast<int64_t>(rng.NextBelow(1ull << 40)));
      plan.required.cpu = static_cast<double>(container_milli.back()) / 1000.0;
      plan.required.ram_mb = RandomSigned(&rng);
      plan.required.disk_mb = RandomSigned(&rng);
    }
    const packing::PackingPlan plan("topology-" + std::to_string(i),
                                    containers);

    Buffer want;
    WireEncoder enc(&want);
    enc.WriteStringField(1, plan.topology_name());
    for (size_t c = 0; c < containers.size(); ++c) {
      Buffer container;
      WireEncoder container_enc(&container);
      container_enc.WriteInt32Field(1, containers[c].id);
      for (size_t k = 0; k < containers[c].instances.size(); ++k) {
        const packing::InstancePlan& inst = containers[c].instances[k];
        Buffer instance;
        WireEncoder instance_enc(&instance);
        instance_enc.WriteInt32Field(1, inst.task_id);
        instance_enc.WriteStringField(2, inst.component);
        instance_enc.WriteInt32Field(3, inst.component_index);
        instance_enc.WriteInt64Field(4, instance_milli[c][k]);
        instance_enc.WriteInt64Field(5, inst.resources.ram_mb);
        instance_enc.WriteInt64Field(6, inst.resources.disk_mb);
        container_enc.WriteBytesField(2, instance);
      }
      container_enc.WriteInt64Field(3, container_milli[c]);
      container_enc.WriteInt64Field(4, containers[c].required.ram_mb);
      container_enc.WriteInt64Field(5, containers[c].required.disk_mb);
      enc.WriteBytesField(2, container);
    }
    const Buffer bytes = plan.SerializeAsBuffer();
    ASSERT_EQ(bytes, want) << "plan " << i;
    packing::PackingPlan parsed;
    ASSERT_TRUE(parsed.ParseFromBytes(bytes).ok());
    EXPECT_EQ(parsed, plan);
  }
}

}  // namespace
}  // namespace serde
}  // namespace heron
