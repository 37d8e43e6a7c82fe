#include "inputs.h"

#include <unordered_set>

namespace perfbench {

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return mix.Next();
}

std::vector<std::string> MakeDictionary(size_t size, uint64_t seed) {
  SplitMix64 rng(StreamSeed(seed, 0xd1c7));
  std::vector<std::string> words;
  words.reserve(size);
  std::unordered_set<std::string> seen;
  seen.reserve(size * 2);
  while (words.size() < size) {
    std::string w(4 + rng.Below(9), 'a');
    for (char& c : w) c = static_cast<char>('a' + rng.Below(26));
    if (seen.insert(w).second) words.push_back(std::move(w));
  }
  return words;
}

std::vector<uint32_t> MakeDraws(size_t count, uint32_t range, uint64_t seed,
                                uint64_t stream) {
  SplitMix64 rng(StreamSeed(seed, stream));
  std::vector<uint32_t> draws(count);
  for (uint32_t& d : draws) d = rng.Below(range);
  return draws;
}

std::vector<std::string> MakePayloads(size_t count, size_t bytes,
                                      uint64_t seed) {
  SplitMix64 rng(StreamSeed(seed, 0x9a71));
  std::vector<std::string> payloads(count, std::string(bytes, '\0'));
  for (std::string& p : payloads) {
    for (char& c : p) c = static_cast<char>(rng.Next() & 0xff);
  }
  return payloads;
}

std::vector<uint64_t> ReferenceTally(uint32_t range, uint64_t seed,
                                     uint64_t stream, size_t cycle,
                                     uint64_t emitted) {
  std::vector<uint64_t> tally(range, 0);
  SplitMix64 rng(StreamSeed(seed, stream));
  std::vector<uint32_t> once;
  once.reserve(cycle);
  for (size_t i = 0; i < cycle; ++i) once.push_back(rng.Below(range));
  const uint64_t full_cycles = emitted / cycle;
  const uint64_t rest = emitted % cycle;
  for (size_t i = 0; i < cycle; ++i) {
    tally[once[i]] += full_cycles + (i < rest ? 1 : 0);
  }
  return tally;
}

}  // namespace perfbench
