#include "api/grouping.h"

#include <algorithm>

#include "common/logging.h"

namespace heron {
namespace api {

Router::Router(GroupingKind kind, const Fields& schema,
               const Fields& grouping_fields, std::vector<TaskId> target_tasks,
               uint64_t seed, CustomGroupingFn custom_fn)
    : kind_(kind),
      target_tasks_(std::move(target_tasks)),
      rng_(seed),
      custom_fn_(std::move(custom_fn)) {
  std::sort(target_tasks_.begin(), target_tasks_.end());
  if (kind_ == GroupingKind::kFields) {
    for (const auto& name : grouping_fields.names()) {
      const int idx = schema.IndexOf(name);
      if (idx < 0) {
        HLOG(FATAL) << "fields grouping references unknown field '" << name
                    << "'";
      }
      field_indices_.push_back(idx);
    }
    // Hash in ascending schema position so the Stream Manager's lazy
    // serialized-bytes walk (which visits values in order) combines
    // identically.
    std::sort(field_indices_.begin(), field_indices_.end());
    HERON_DCHECK(!field_indices_.empty()) << "empty fields grouping";
  }
  if (kind_ == GroupingKind::kCustom && custom_fn_ == nullptr) {
    HLOG(FATAL) << "custom grouping requires a grouping function";
  }
  HERON_DCHECK(!target_tasks_.empty()) << "router with no target tasks";
}

uint64_t Router::KeyHash(const Values& values) const {
  uint64_t h = 0;
  for (const int idx : field_indices_) {
    h = HashCombine(h, HashValue(values[static_cast<size_t>(idx)]));
  }
  return h;
}

TaskId Router::RouteOne(const Values& values) {
  switch (kind_) {
    case GroupingKind::kShuffle:
      return target_tasks_[rng_.NextBelow(target_tasks_.size())];
    case GroupingKind::kFields:
      return TaskForKeyHash(KeyHash(values));
    case GroupingKind::kGlobal:
      return target_tasks_.front();
    case GroupingKind::kAll:
    case GroupingKind::kCustom:
      break;
  }
  HLOG(FATAL) << "RouteOne called on fan-out grouping kind "
              << static_cast<int>(kind_);
  return -1;
}

void Router::Route(const Values& values, std::vector<TaskId>* out) {
  switch (kind_) {
    case GroupingKind::kShuffle:
    case GroupingKind::kFields:
    case GroupingKind::kGlobal:
      out->push_back(RouteOne(values));
      return;
    case GroupingKind::kAll:
      out->insert(out->end(), target_tasks_.begin(), target_tasks_.end());
      return;
    case GroupingKind::kCustom: {
      const std::vector<int> picks =
          custom_fn_(values, static_cast<int>(target_tasks_.size()));
      for (const int p : picks) {
        // Picks come from user code: one out of range is that tuple's
        // bug, not the engine's, so it is dropped rather than fatal.
        if (p < 0 || p >= static_cast<int>(target_tasks_.size())) {
          HLOG(ERROR) << "dropping custom grouping pick " << p
                      << " outside [0, " << target_tasks_.size() << ")";
          continue;
        }
        out->push_back(target_tasks_[static_cast<size_t>(p)]);
      }
      return;
    }
  }
}

}  // namespace api
}  // namespace heron
