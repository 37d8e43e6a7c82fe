#ifndef HERON_COMMON_FLAT_U64_MAP_H_
#define HERON_COMMON_FLAT_U64_MAP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace heron {

/// \brief Open-addressing hash map from uint64 keys to small trivially
/// copyable values — the per-tuple bookkeeping table of the ack path
/// (the SMGR's AckTracker and a spout's pending roots).
///
/// Linear probing over a power-of-two slot array with Fibonacci hashing
/// (the top bits of key * 2^64/phi, which every key bit feeds), grown by
/// doubling at 3/4 load and never shrunk. Erase is backward-shift
/// deletion, so there are no tombstones and erase-heavy traffic never
/// lengthens probe runs. Key 0 marks an empty slot; a 0 key lives in a
/// side slot instead. Nothing is allocated before the first insert, and
/// nothing per entry after the table reaches its working size — unlike
/// std::map, which heap-allocates a tree node per key.
///
/// Pointers returned by Find / TryEmplace stay valid only until the next
/// TryEmplace or Erase.
template <typename V>
class FlatU64Map {
  static_assert(std::is_trivially_copyable_v<V>,
                "FlatU64Map holds plain values");

 public:
  /// Probe start of `key` in a table of `capacity` slots (a power of two,
  /// at least 2) — exposed so tests can build keys that share a slot.
  static size_t HomeSlot(uint64_t key, size_t capacity) {
    return static_cast<size_t>((key * kFibonacci) >>
                               (64 - __builtin_ctzll(capacity)));
  }

  size_t size() const { return size_ + (has_zero_ ? 1 : 0); }
  /// Slot-array size: 0 until the first nonzero key is inserted.
  size_t capacity() const { return capacity_; }

  V* Find(uint64_t key) {
    if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
    if (capacity_ == 0) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == 0) return nullptr;
    }
  }
  const V* Find(uint64_t key) const {
    return const_cast<FlatU64Map*>(this)->Find(key);
  }

  /// The value stored under `key`, value-initialized and inserted first
  /// when absent; `second` is true when this call inserted it.
  std::pair<V*, bool> TryEmplace(uint64_t key) {
    if (key == 0) {
      const bool inserted = !has_zero_;
      if (inserted) zero_value_ = V();
      has_zero_ = true;
      return {&zero_value_, inserted};
    }
    if ((size_ + 1) * 4 > capacity_ * 3) Grow();
    size_t i = Home(key);
    for (; slots_[i].key != 0; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i] = Slot{key, V()};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes `key`; false when it was absent.
  bool Erase(uint64_t key) {
    if (key == 0) return std::exchange(has_zero_, false);
    if (capacity_ == 0) return false;
    size_t hole = Home(key);
    for (; slots_[hole].key != key; hole = (hole + 1) & mask_) {
      if (slots_[hole].key == 0) return false;
    }
    // Backward shift: walk the rest of the probe run and pull each entry
    // into the hole unless that would put it before its home slot.
    for (size_t j = (hole + 1) & mask_; slots_[j].key != 0;
         j = (j + 1) & mask_) {
      const size_t home = Home(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = 0;
    --size_;
    return true;
  }

 private:
  static constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    uint64_t key;
    V value;
  };

  size_t Home(uint64_t key) const { return HomeSlot(key, capacity_); }

  void Grow() {
    const size_t old_capacity = capacity_;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    capacity_ = old_capacity == 0 ? kMinCapacity : old_capacity * 2;
    mask_ = capacity_ - 1;
    slots_ = std::make_unique<Slot[]>(capacity_);  // Zeroed: all empty.
    for (size_t i = 0; i < old_capacity; ++i) {
      if (old[i].key == 0) continue;
      size_t j = Home(old[i].key);
      while (slots_[j].key != 0) j = (j + 1) & mask_;
      slots_[j] = old[i];
    }
  }

  std::unique_ptr<Slot[]> slots_;
  size_t capacity_ = 0;
  size_t mask_ = 0;
  size_t size_ = 0;  ///< Entries in slots_ (the 0 key excluded).
  bool has_zero_ = false;
  V zero_value_{};
};

}  // namespace heron

#endif  // HERON_COMMON_FLAT_U64_MAP_H_
