#include "smgr/ack_tracker.h"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace heron {
namespace smgr {

void AckTracker::Register(api::TupleKey root, api::TupleKey spout_tuple_key,
                          int64_t now_nanos) {
  auto [entry, inserted] = entries_.TryEmplace(root);
  entry->xor_state ^= spout_tuple_key;
  if (!inserted) return;
  int64_t deadline = now_nanos + timeout_nanos_;
  if (head_ < deadlines_.size()) {
    // Clamp a backwards clock reading: FIFO order must stay deadline order.
    deadline = std::max(deadline, deadlines_.back().deadline_nanos);
  }
  entry->deadline_nanos = deadline;
  deadlines_.push_back({deadline, root});
}

std::optional<AckTracker::Completion> AckTracker::Update(
    api::TupleKey root, api::TupleKey xor_value, bool fail) {
  Entry* entry = entries_.Find(root);
  if (entry == nullptr) return std::nullopt;  // Stale update.
  if (!fail) {
    entry->xor_state ^= xor_value;
    if (entry->xor_state != 0) return std::nullopt;
  }
  entries_.Erase(root);
  MaybeCompact();
  return Completion{root, fail};
}

std::vector<AckTracker::Completion> AckTracker::ExpireTimeouts(
    int64_t now_nanos) {
  std::vector<Completion> expired;
  while (head_ < deadlines_.size() &&
         deadlines_[head_].deadline_nanos <= now_nanos) {
    const DeadlineRecord record = deadlines_[head_];
    PopDeadline();
    if (IsLive(record)) {
      entries_.Erase(record.root);
      expired.push_back({record.root, true});
    }
  }
  MaybeCompact();
  return expired;
}

int64_t AckTracker::NextDeadlineNanos() {
  while (head_ < deadlines_.size()) {
    if (IsLive(deadlines_[head_])) return deadlines_[head_].deadline_nanos;
    PopDeadline();
  }
  return std::numeric_limits<int64_t>::max();
}

bool AckTracker::IsLive(const DeadlineRecord& record) const {
  // A root completed and registered again under the same key gets a new
  // record; the deadline tells the two apart.
  const Entry* entry = entries_.Find(record.root);
  return entry != nullptr && entry->deadline_nanos == record.deadline_nanos;
}

void AckTracker::PopDeadline() {
  ++head_;
  if (2 * head_ >= deadlines_.size()) {
    deadlines_.erase(deadlines_.begin(),
                     deadlines_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void AckTracker::MaybeCompact() {
  // Every live root owns exactly one record, so the rest are stale. A
  // root lost to a container kill pins the front until its timeout, and
  // front pruning alone would then keep a record for every root
  // registered after it.
  if (deadline_records() <= 2 * entries_.size()) return;
  size_t kept = 0;
  for (size_t i = head_; i < deadlines_.size(); ++i) {
    if (IsLive(deadlines_[i])) deadlines_[kept++] = deadlines_[i];
  }
  deadlines_.resize(kept);
  head_ = 0;
}

}  // namespace smgr
}  // namespace heron
