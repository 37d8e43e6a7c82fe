#ifndef HERON_SMGR_ACK_TRACKER_H_
#define HERON_SMGR_ACK_TRACKER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "api/tuple.h"
#include "common/flat_u64_map.h"

namespace heron {
namespace smgr {

/// \brief XOR-rotation ack tracking for the tuple trees rooted at this
/// container's spouts.
///
/// The classic Storm/Heron algorithm: every tuple key is folded into its
/// root's XOR state exactly twice — once when the tuple enters the tree
/// (spout registration for roots, anchored-emit contribution inside the
/// acking bolt's update) and once when it is acked. The state returns to
/// zero exactly when every tuple in the tree has been acked, regardless
/// of order or interleaving. A `fail` update or a timeout completes the
/// root immediately with fail=true.
///
/// Roots live in a FlatU64Map and their deadlines in a FIFO queue in
/// registration order, so a tree costs O(1) work and no allocation once
/// the table and queue reach their working size. The queue is
/// deadline-ordered because deadlines are monotone in registration order
/// under the engine's monotone clocks; a clock reading that goes
/// backwards is clamped up to the queue's back, so no root ever expires
/// before its own deadline. A completed root leaves a stale record in
/// the queue; whenever the queue holds more than 2 × pending() records,
/// one pass drops every stale record, at amortized O(1) per completion.
///
/// Single-threaded by design: owned and driven by one Stream Manager loop.
class AckTracker {
 public:
  struct Completion {
    api::TupleKey root = 0;
    bool fail = false;
  };

  /// \param timeout_nanos  per-root deadline from registration; a root not
  ///        completing in time is failed (topology message timeout, §V-B).
  explicit AckTracker(int64_t timeout_nanos) : timeout_nanos_(timeout_nanos) {}

  /// Starts tracking `root` with the spout tuple's key folded in.
  void Register(api::TupleKey root, api::TupleKey spout_tuple_key,
                int64_t now_nanos);

  /// Applies one XOR update; returns the completion when the tree closed
  /// (XOR hit zero) or the update carried fail. Stale updates for unknown
  /// roots (already completed / timed out) are ignored.
  std::optional<Completion> Update(api::TupleKey root, api::TupleKey xor_value,
                                   bool fail);

  /// Fails every root whose deadline passed, oldest deadline first.
  std::vector<Completion> ExpireTimeouts(int64_t now_nanos);

  /// Earliest pending deadline, or INT64_MAX when nothing is tracked.
  /// Prunes stale deadline records as a side effect.
  int64_t NextDeadlineNanos();

  size_t pending() const { return entries_.size(); }
  /// Deadline records held, live and stale (the compaction bound's
  /// subject).
  size_t deadline_records() const { return deadlines_.size() - head_; }

 private:
  struct Entry {
    api::TupleKey xor_state = 0;
    int64_t deadline_nanos = 0;
  };
  struct DeadlineRecord {
    int64_t deadline_nanos = 0;
    api::TupleKey root = 0;
  };

  /// True while `record` still belongs to a tracked root.
  bool IsLive(const DeadlineRecord& record) const;
  /// Consumes the queue's front record.
  void PopDeadline();
  /// Drops every stale record once they outnumber the live roots.
  void MaybeCompact();

  int64_t timeout_nanos_;
  FlatU64Map<Entry> entries_;
  /// The FIFO: records [head_, size()) in registration order, deadlines
  /// non-decreasing. The consumed prefix is reclaimed once it is half the
  /// vector, so pops stay amortized O(1) without a ring buffer.
  std::vector<DeadlineRecord> deadlines_;
  size_t head_ = 0;
};

}  // namespace smgr
}  // namespace heron

#endif  // HERON_SMGR_ACK_TRACKER_H_
