#ifndef HERON_IPC_WAKEUP_H_
#define HERON_IPC_WAKEUP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace heron {
namespace ipc {

/// \brief Coalescing wakeup latch: the "interrupt line" between Channels
/// and the reactor (runtime::EventLoop) that multiplexes them.
///
/// Any number of producers call Notify(); a single consumer blocks in
/// WaitFor(). Notifications are *coalesced*: N notifies between two waits
/// wake the consumer exactly once. A notify that races ahead of the wait
/// is latched (`pending_`), so the consumer never sleeps through work that
/// was announced before it went to sleep — the classic lost-wakeup hazard
/// of hand-rolled loops.
///
/// A Channel has no wait of its own: a reactor waits on *one* Wakeup
/// while draining *many* channels, which is what lets one thread
/// multiplex an arbitrary set of endpoints (Fig. 1's kernel) without
/// polling.
class Wakeup {
 public:
  Wakeup() = default;
  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  /// Announces that work may be available. Cheap when already pending.
  ///
  /// When chained (see Chain()), the latch is still set locally but the
  /// condition variable is skipped: the parent is notified instead, so a
  /// consumer parked on the *parent* wakes and can Poll() this latch.
  /// Coalescing still applies — a notify while already pending forwards
  /// nothing, which is safe only under the chained consumer's discipline
  /// of Poll()ing every member latch immediately before parking.
  void Notify() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_) return;  // Coalesce.
      pending_ = true;
    }
    Wakeup* parent = parent_.load(std::memory_order_acquire);
    if (parent != nullptr) {
      parent->Notify();
      return;
    }
    // Same-thread fast path: the consumer cannot be parked in WaitFor()
    // while it is itself calling Notify(), so the cv signal would be
    // wasted. This is what makes same-loop handoff between cooperative
    // tasklets a latch flip instead of a futex syscall.
    if (owner_.load(std::memory_order_relaxed) == std::this_thread::get_id()) {
      return;
    }
    cv_.notify_all();
  }

  /// Routes future notifications to `parent` instead of this latch's
  /// condition variable (nullptr restores direct delivery). Used by the
  /// cooperative tasklet pool: every member loop's wakeup chains to its
  /// worker's wakeup, so one parked worker hears all of its loops.
  void Chain(Wakeup* parent) {
    parent_.store(parent, std::memory_order_release);
  }

  /// Declares the calling thread the latch's consumer, enabling the
  /// same-thread notify elision above. Call from the consumer thread;
  /// until then the owner is a default-constructed id (never equal to a
  /// live thread), so the elision is off.
  void SetOwnerThread() {
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  /// Blocks until notified or `timeout_nanos` elapse. Returns true when a
  /// notification was consumed, false on timeout. Always clears the latch.
  bool WaitFor(int64_t timeout_nanos) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (pending_) {
      pending_ = false;
      return true;
    }
    const bool notified = cv_.wait_for(
        lock, std::chrono::nanoseconds(timeout_nanos), [&] { return pending_; });
    pending_ = false;
    return notified;
  }

  /// Non-blocking: consumes and returns the latch.
  bool Poll() {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool was = pending_;
    pending_ = false;
    return was;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool pending_ = false;
  std::atomic<Wakeup*> parent_{nullptr};
  std::atomic<std::thread::id> owner_{};
};

}  // namespace ipc
}  // namespace heron

#endif  // HERON_IPC_WAKEUP_H_
