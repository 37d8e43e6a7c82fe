#ifndef HERON_OBSERVABILITY_STAMPED_RING_H_
#define HERON_OBSERVABILITY_STAMPED_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace heron {
namespace observability {

/// \brief Wait-free fixed-capacity ring of records packed into atomic
/// words: the one slot protocol behind the span, journal and slice rings.
///
/// `T` supplies only its codec:
///   static constexpr size_t kWords;
///   static void Pack(std::array<uint64_t, kWords>& words, <Record args>);
///   static T Unpack(const std::array<uint64_t, kWords>& words, uint64_t seq);
/// Record(args...) forwards to Pack into a stack array, so recording never
/// locks or allocates; `seq` is the record's global index.
///
/// Each slot is a seqlock whose stamp is 0 (empty), 1 + the index of the
/// record it holds, or kBusy while a writer owns it. The orderings follow
/// Boehm, "Can seqlocks get along with programming language memory
/// models?", so no torn record passes the check under the C++ memory model:
/// - Record() takes the next global index (relaxed fetch_add), then claims
///   the slot with a CAS from an older published stamp to kBusy. A busy or
///   newer stamp means another lap's writer owns the slot: the record is
///   dropped, so Record() never waits and two writers never mix their words
///   under one stamp. Laps happen only on a wrapped ring, so dropped() is
///   already nonzero when a record is lost this way.
/// - The CAS acquires, so the previous owner's word stores precede this
///   writer's in every word's modification order. A release fence keeps the
///   claim before the relaxed word stores; a release store publishes.
/// - Snapshot() loads the stamp (acquire), the words (relaxed), then an
///   acquire fence keeps those loads before a relaxed re-check of the
///   stamp. A word from a later writer implies the re-check sees that
///   writer's claim, so the slot is skipped, never returned torn.
template <typename T>
class StampedRing {
 public:
  using Words = std::array<uint64_t, T::kWords>;

  /// Capacity 0 is clamped to 1.
  explicit StampedRing(size_t capacity)
      : capacity_(std::max<size_t>(capacity, 1)), slots_(new Slot[capacity_]) {}

  StampedRing(const StampedRing&) = delete;
  StampedRing& operator=(const StampedRing&) = delete;

  /// Wait-free; callable from any thread. Takes T::Pack's arguments.
  /// Kept out of line, like the per-type rings it replaced: instances
  /// record spans inside their per-tuple loop behind a rarely taken trace
  /// branch, and inlining the claim loop there grows that hot loop.
  template <typename... Args>
  [[gnu::noinline]] void Record(Args&&... args) {
    Words words;
    T::Pack(words, std::forward<Args>(args)...);
    const uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[index % capacity_];
    uint64_t seen = slot.stamp.load(std::memory_order_relaxed);
    do {
      if (seen > index) return;  // kBusy or a newer record: lapped.
    } while (!slot.stamp.compare_exchange_weak(seen, kBusy,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed));
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t i = 0; i < T::kWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
    slot.stamp.store(index + 1, std::memory_order_release);
  }

  /// Retained records, oldest-first in record order.
  std::vector<T> Snapshot() const {
    const uint64_t total = next_.load(std::memory_order_relaxed);
    const uint64_t retained = std::min<uint64_t>(total, capacity_);
    std::vector<T> out;
    out.reserve(retained);
    for (uint64_t index = total - retained; index < total; ++index) {
      const Slot& slot = slots_[index % capacity_];
      if (slot.stamp.load(std::memory_order_acquire) != index + 1) {
        continue;  // Not yet published, mid-write, or lapped.
      }
      Words words;
      for (size_t i = 0; i < T::kWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.stamp.load(std::memory_order_relaxed) != index + 1) {
        continue;  // Overwritten while copying.
      }
      out.push_back(T::Unpack(words, index));
    }
    return out;
  }

  /// Records ever recorded (including overwritten and lapped ones).
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  /// Records lost to ring wraparound.
  uint64_t dropped() const {
    const uint64_t total = total_recorded();
    return total > capacity_ ? total - capacity_ : 0;
  }
  size_t capacity() const { return capacity_; }

 private:
  static constexpr uint64_t kBusy = ~uint64_t{0};

  struct Slot {
    std::atomic<uint64_t> stamp{0};
    std::array<std::atomic<uint64_t>, T::kWords> words{};
  };

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace observability
}  // namespace heron

#endif  // HERON_OBSERVABILITY_STAMPED_RING_H_
