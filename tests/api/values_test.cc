#include "api/values.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "serde/wire.h"

namespace heron {
namespace api {
namespace {

Value RandomValue(Random* rng) {
  switch (rng->NextBelow(4)) {
    case 0:
      return Value(static_cast<int64_t>(rng->NextUint64()));
    case 1:
      return Value(rng->NextDouble() * 1e9 - 5e8);
    case 2:
      return Value(rng->NextBool());
    default: {
      std::string s(rng->NextBelow(64), '\0');
      for (auto& c : s) c = static_cast<char>('a' + rng->NextBelow(26));
      return Value(std::move(s));
    }
  }
}

TEST(ValuesTest, KindOfMatchesAlternative) {
  EXPECT_EQ(KindOf(Value(int64_t{1})), ValueKind::kInt64);
  EXPECT_EQ(KindOf(Value(1.5)), ValueKind::kDouble);
  EXPECT_EQ(KindOf(Value(true)), ValueKind::kBool);
  EXPECT_EQ(KindOf(Value(std::string("x"))), ValueKind::kString);
}

TEST(ValuesTest, EncodeDecodeRoundTripScalars) {
  for (const Value& v :
       {Value(int64_t{-123456}), Value(0.0), Value(true), Value(false),
        Value(std::string()), Value(std::string("word")),
        Value(int64_t{0}), Value(-1.5e-300)}) {
    serde::Buffer buf;
    serde::WireEncoder enc(&buf);
    EncodeValue(v, &enc);
    serde::WireDecoder dec(buf);
    const auto decoded = DecodeValue(&dec);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, v);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(ValuesTest, HashEqualsSerializedBytesHash) {
  // The lazy routing contract: HashValue(v) must equal an FNV over the
  // exact canonical encoding. This keeps SMGR routing identical whether
  // or not the tuple was ever decoded.
  Random rng(17);
  for (int i = 0; i < 500; ++i) {
    const Value v = RandomValue(&rng);
    serde::Buffer buf;
    serde::WireEncoder enc(&buf);
    EncodeValue(v, &enc);
    EXPECT_EQ(HashValue(v), HashSerializedBytes(buf.data(), buf.size()))
        << ValueToString(v);
  }
}

TEST(ValuesTest, HashIsStableAndDiscriminating) {
  EXPECT_EQ(HashValue(Value(std::string("heron"))),
            HashValue(Value(std::string("heron"))));
  EXPECT_NE(HashValue(Value(std::string("heron"))),
            HashValue(Value(std::string("storm"))));
  // Same bits, different type → different hash (kind byte is folded in).
  EXPECT_NE(HashValue(Value(int64_t{0})), HashValue(Value(false)));
}

TEST(ValuesTest, HashCombineOrderSensitive) {
  const uint64_t a = HashValue(Value(std::string("a")));
  const uint64_t b = HashValue(Value(std::string("b")));
  EXPECT_NE(HashCombine(HashCombine(0, a), b),
            HashCombine(HashCombine(0, b), a));
}

TEST(ValuesTest, ToStringRenders) {
  EXPECT_EQ(ValueToString(Value(int64_t{42})), "42");
  EXPECT_EQ(ValueToString(Value(true)), "true");
  EXPECT_EQ(ValueToString(Value(std::string("w"))), "\"w\"");
}

TEST(ValuesTest, ByteSizeApproximation) {
  EXPECT_EQ(ValueByteSize(Value(int64_t{1})), sizeof(int64_t));
  EXPECT_EQ(ValueByteSize(Value(1.0)), sizeof(double));
  EXPECT_EQ(ValueByteSize(Value(true)), 1u);
  EXPECT_EQ(ValueByteSize(Value(std::string("abcd"))), 4u);
}

TEST(ValuesTest, DecodeRejectsGarbageKind) {
  serde::Buffer buf;
  serde::WireEncoder enc(&buf);
  enc.WriteVarint(250);  // Not a ValueKind.
  serde::WireDecoder dec(buf);
  EXPECT_FALSE(DecodeValue(&dec).ok());
}

TEST(ValuesTest, DecodeValueIntoReusesTheSlot) {
  const auto decode_into = [](const serde::Buffer& bytes, Value* slot) {
    serde::WireDecoder dec(bytes);
    return DecodeValueInto(&dec, slot);
  };
  const auto encoded = [](const Value& v) {
    serde::Buffer buf;
    serde::WireEncoder enc(&buf);
    EncodeValue(v, &enc);
    return buf;
  };
  // A string lands in the storage of the string the slot already holds.
  Value slot(std::string(64, 'x'));
  const char* storage = std::get<std::string>(slot).data();
  ASSERT_TRUE(decode_into(encoded(Value(std::string("word"))), &slot).ok());
  EXPECT_EQ(slot, Value(std::string("word")));
  EXPECT_EQ(std::get<std::string>(slot).data(), storage);
  // Another kind replaces it.
  ASSERT_TRUE(decode_into(encoded(Value(int64_t{7})), &slot).ok());
  EXPECT_EQ(slot, Value(int64_t{7}));
  // A failed decode (bad kind, truncated string) leaves the slot as it was.
  serde::Buffer bad;
  serde::WireEncoder enc(&bad);
  enc.WriteVarint(250);
  EXPECT_FALSE(decode_into(bad, &slot).ok());
  serde::Buffer truncated = encoded(Value(std::string("truncated")));
  truncated.pop_back();
  EXPECT_FALSE(decode_into(truncated, &slot).ok());
  EXPECT_EQ(slot, Value(int64_t{7}));
}

/// Property sweep: random multi-value tuples round-trip.
class ValuesRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValuesRoundTrip, RandomTuples) {
  Random rng(GetParam());
  Values values;
  for (size_t i = 0; i < 1 + rng.NextBelow(10); ++i) {
    values.push_back(RandomValue(&rng));
  }
  serde::Buffer buf;
  serde::WireEncoder enc(&buf);
  for (const auto& v : values) EncodeValue(v, &enc);
  serde::WireDecoder dec(buf);
  for (const auto& v : values) {
    const auto decoded = DecodeValue(&dec);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, v);
  }
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValuesRoundTrip,
                         ::testing::Range<uint64_t>(100, 120));

}  // namespace
}  // namespace api
}  // namespace heron
