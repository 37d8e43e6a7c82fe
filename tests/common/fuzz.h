#ifndef HERON_TESTS_COMMON_FUZZ_H_
#define HERON_TESTS_COMMON_FUZZ_H_

// Seeded mutation fuzzing for the payload decoders, kept as gtest loops
// (g++ has no libFuzzer). The ASan and UBSan lanes run these loops too.

#include <gtest/gtest.h>

#include "common/random.h"
#include "serde/wire.h"

namespace heron {
namespace fuzz {

/// One seeded mutation of a valid encoding: a truncation, 1-4 bit flips,
/// or a spliced overlong varint.
inline serde::Buffer Mutate(serde::Buffer bytes, Random* rng) {
  switch (rng->NextBelow(3)) {
    case 0:  // Truncation.
      bytes.resize(rng->NextBelow(bytes.size() + 1));
      break;
    case 1: {  // Bit flips.
      const size_t flips = 1 + rng->NextBelow(4);
      for (size_t i = 0; i < flips && !bytes.empty(); ++i) {
        bytes[rng->NextBelow(bytes.size())] ^=
            static_cast<char>(1u << rng->NextBelow(8));
      }
      break;
    }
    default: {  // Overlong varint: continuation bytes past the 10-byte cap,
                // or a non-canonical encoding, spliced in anywhere.
      serde::Buffer varint(1 + rng->NextBelow(14),
                           rng->NextBool() ? '\xFF' : '\x80');
      if (rng->NextBool(0.7)) varint.push_back(rng->NextBool() ? 1 : 0);
      bytes.insert(rng->NextBelow(bytes.size() + 1), varint);
      break;
    }
  }
  return bytes;
}

/// Feeds 20k mutations of `make_seed`'s encodings to `Msg`'s decoder. Every
/// input must decode or fail cleanly, and whatever decodes must re-encode
/// and re-decode to an equal message. The mutations must land on both
/// sides of the accept/reject line.
template <typename Msg, typename MakeSeed>
void ExpectDecoderSurvivesMutations(uint64_t seed, MakeSeed make_seed) {
  Random rng(seed);
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    const serde::Buffer input = Mutate(make_seed(&rng), &rng);
    Msg parsed;
    if (!parsed.ParseFromBytes(input).ok()) continue;
    ++decoded;
    Msg again;
    ASSERT_TRUE(again.ParseFromBytes(parsed.SerializeAsBuffer()).ok());
    EXPECT_EQ(again, parsed);
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 20000);
}

}  // namespace fuzz
}  // namespace heron

#endif  // HERON_TESTS_COMMON_FUZZ_H_
