#ifndef HERON_IPC_CHANNEL_H_
#define HERON_IPC_CHANNEL_H_

#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "common/status.h"
#include "ipc/wakeup.h"

namespace heron {
namespace ipc {

/// \brief Outcome of a non-blocking receive: distinguishes "nothing right
/// now" from "nothing ever again", which hand-rolled loops previously had
/// to discover with an extra closed() lock round-trip per idle iteration.
enum class RecvState {
  kItem,    ///< An item was returned.
  kEmpty,   ///< Queue empty, channel still open — more may arrive.
  kClosed,  ///< Closed *and* drained — end of stream, stop polling.
};

/// \brief Bounded multi-producer/multi-consumer message channel — the IPC
/// kernel of Fig. 1.
///
/// In the paper's deployment the modules are separate processes connected
/// by sockets; here each module runs on its own thread and a Channel is
/// the socket stand-in. The semantics that matter for fidelity are
/// preserved: payloads cross the boundary only as serialized bytes
/// (enforced by the Envelope discipline, not by this class), and capacity
/// is bounded so a slow consumer exerts back pressure on producers exactly
/// as a full TCP window would.
///
/// Every call is non-blocking, because every party is a reactor that must
/// never stall its thread (or its pool worker): a full channel refuses
/// TrySend and the producer parks the item for a later retry, and a
/// consumer sleeps on its bound Wakeup, never on the channel.
template <typename T>
class Channel {
 public:
  explicit Channel(size_t capacity) : capacity_(capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Non-blocking send; kResourceExhausted when full, kCancelled when
  /// closed. Takes an rvalue reference and moves only on success, so the
  /// caller keeps the item (and can park it for retry) on failure.
  Status TrySend(T&& item) {
    Wakeup* wakeup = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return Status::Cancelled("channel closed");
      if (queue_.size() >= capacity_) {
        return Status::ResourceExhausted("channel full");
      }
      queue_.push_back(std::move(item));
      ++total_enqueued_;
      wakeup = wakeup_;
    }
    if (wakeup != nullptr) wakeup->Notify();
    return Status::OK();
  }

  /// Non-blocking receive. std::nullopt for both "empty" and
  /// "closed-and-drained"; prefer the RecvState overload when the caller
  /// must tell them apart.
  std::optional<T> TryRecv() {
    RecvState ignored;
    return TryRecv(&ignored);
  }

  /// Non-blocking receive that reports why nothing was returned:
  /// kEmpty means retry later, kClosed means end of stream. Saves the
  /// extra closed() lock round-trip every reactor poll used to pay.
  std::optional<T> TryRecv(RecvState* state) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) {
      *state = closed_ ? RecvState::kClosed : RecvState::kEmpty;
      return std::nullopt;
    }
    *state = RecvState::kItem;
    std::optional<T> item(std::move(queue_.front()));
    queue_.pop_front();
    return item;
  }

  /// Closes the channel: senders fail immediately; receivers drain the
  /// remaining items and then see end of stream.
  void Close() {
    Wakeup* wakeup = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      wakeup = wakeup_;
    }
    if (wakeup != nullptr) wakeup->Notify();
  }

  /// Binds (or, with nullptr, unbinds) a reactor wakeup: it is notified on
  /// every enqueue and on Close, so an EventLoop can sleep on one Wakeup
  /// while multiplexing many channels. At most one consumer loop per
  /// channel; the binding must outlive all concurrent TrySend/Close calls or
  /// be cleared first (EventLoop unbinds in its destructor).
  void BindWakeup(Wakeup* wakeup) {
    std::lock_guard<std::mutex> lock(mutex_);
    wakeup_ = wakeup;
  }

  /// Expires when this channel is destroyed. A party holding a deferred
  /// reference to the channel (the EventLoop's teardown unbind) locks the
  /// token first, so channel-before-loop destruction is safe: touching a
  /// destroyed channel's mutex is undefined behavior (it wedged the UBSan
  /// lane in a futex wait on the dead lock's stack bytes).
  std::weak_ptr<void> alive_token() const { return alive_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  size_t capacity() const { return capacity_; }

  /// Total items ever enqueued; a cheap throughput probe for tests.
  uint64_t total_enqueued() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_enqueued_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<T> queue_;
  bool closed_ = false;
  uint64_t total_enqueued_ = 0;
  Wakeup* wakeup_ = nullptr;  ///< Reactor notification hook; see BindWakeup.
  /// Declared last so it is destroyed first: alive_token() observers see
  /// expiry before any other member (the mutex above all) is torn down.
  std::shared_ptr<void> alive_ = std::make_shared<int>(0);
};

}  // namespace ipc
}  // namespace heron

#endif  // HERON_IPC_CHANNEL_H_
