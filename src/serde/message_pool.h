#ifndef HERON_SERDE_MESSAGE_POOL_H_
#define HERON_SERDE_MESSAGE_POOL_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serde/wire.h"

namespace heron {
namespace serde {

/// \brief Counters a BufferPool exposes, so tests and benchmarks can
/// verify that steady-state operation stops allocating.
struct PoolStats {
  uint64_t allocations = 0;  ///< Buffers created fresh.
  uint64_t reuses = 0;       ///< Buffers served from the free list.
  uint64_t returns = 0;      ///< Buffers handed back to the pool.
  /// Returned buffers the pool refused to retain because a growth bound
  /// (idle count, retained bytes, oversize buffer) tripped. Backpressure
  /// parking can return a burst far above steady state; the bounds turn
  /// that burst into evictions instead of permanently resident memory.
  uint64_t evicted = 0;
  /// Peak idle buffers ever retained at once (freelist high-water mark).
  uint64_t high_water = 0;
};

/// \brief Recycling pool for serialization buffers — the transport fabric's
/// allocator (§V-A optimization 1).
///
/// "Our implementation allows reusability of the Protocol Buffer objects by
/// using memory pools to store dedicated objects and thus avoid the
/// expensive new/delete operations." Outbound tuple batches are encoded
/// into pooled buffers, and fabric receivers draw delivery buffers from the
/// same pool, so the hot path performs no heap allocation once warm.
/// Buffers keep their capacity across reuses (cleared, not shrunk). Message
/// objects are not pooled: each hot path reuses one scratch message.
///
/// Thread-safe; senders and receivers on different threads share one pool.
///
/// Growth is bounded on three axes, because a backpressure-parking burst
/// returns a spike of buffers that must not become permanently resident:
///  - `max_idle` buffers retained (count cap);
///  - `max_retained_bytes` of capacity retained across the freelist;
///  - `max_buffer_bytes` per buffer (an outsized batch is never retained —
///    recycling one 64 MB buffer through 100-byte acks pins 64 MB forever).
/// A Release that would cross a bound deletes the buffer and counts it in
/// `stats().evicted`; `stats().high_water` tracks the freelist peak.
class BufferPool {
 public:
  explicit BufferPool(size_t max_idle = 4096,
                      size_t max_retained_bytes = 64u << 20,
                      size_t max_buffer_bytes = 4u << 20)
      : max_idle_(max_idle),
        max_retained_bytes_(max_retained_bytes),
        max_buffer_bytes_(max_buffer_bytes) {}

  /// Returns an empty buffer (capacity retained from prior use when pooled).
  Buffer Acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_list_.empty()) {
      Buffer buf = std::move(free_list_.back());
      free_list_.pop_back();
      retained_bytes_ -= buf.capacity();
      ++stats_.reuses;
      buf.clear();
      return buf;
    }
    ++stats_.allocations;
    return Buffer();
  }

  void Release(Buffer buf) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.returns;
    const size_t cap = buf.capacity();
    if (free_list_.size() < max_idle_ && cap <= max_buffer_bytes_ &&
        retained_bytes_ + cap <= max_retained_bytes_) {
      retained_bytes_ += cap;
      free_list_.push_back(std::move(buf));
      if (free_list_.size() > stats_.high_water) {
        stats_.high_water = free_list_.size();
      }
      return;
    }
    ++stats_.evicted;
  }

  PoolStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  size_t idle_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return free_list_.size();
  }

  /// Capacity bytes currently parked on the freelist.
  size_t retained_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return retained_bytes_;
  }

  size_t max_retained_bytes() const { return max_retained_bytes_; }
  size_t max_buffer_bytes() const { return max_buffer_bytes_; }

 private:
  const size_t max_idle_;
  const size_t max_retained_bytes_;
  const size_t max_buffer_bytes_;
  mutable std::mutex mutex_;
  std::vector<Buffer> free_list_;
  size_t retained_bytes_ = 0;
  PoolStats stats_;
};

}  // namespace serde
}  // namespace heron

#endif  // HERON_SERDE_MESSAGE_POOL_H_
