#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: a small, fully specified generator, so the same seed gives
/// the same inputs on every host and compiler.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (multiply-shift; bias below 2^-32 for n < 2^32).
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>(((Next() >> 32) * n) >> 32);
  }

 private:
  uint64_t state_;
};

/// Seed for one input stream of a run: streams of one seed are
/// independent, and the same (seed, stream) always gives the same draws.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// `size` distinct lowercase pseudo-words of 4-12 letters.
std::vector<std::string> MakeDictionary(size_t size, uint64_t seed);

/// `count` uniform draws from [0, range): what one generator emits, in
/// order. A generator that emits more than `count` events cycles.
std::vector<uint32_t> MakeDraws(size_t count, uint32_t range, uint64_t seed,
                                uint64_t stream);

/// `count` payloads of `bytes` random bytes each.
std::vector<std::string> MakePayloads(size_t count, size_t bytes,
                                      uint64_t seed);

/// The reference the counting bolts are checked against: how often each
/// value of [0, range) occurs in the first `emitted` events of a
/// generator whose draws (cycle length `cycle`) come from (seed, stream).
/// Recomputed from the seed, independently of the generator's state.
std::vector<uint64_t> ReferenceTally(uint32_t range, uint64_t seed,
                                     uint64_t stream, size_t cycle,
                                     uint64_t emitted);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
