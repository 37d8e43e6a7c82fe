#ifndef HERON_API_GROUPING_H_
#define HERON_API_GROUPING_H_

#include <functional>
#include <memory>
#include <vector>

#include "api/fields.h"
#include "api/tuple.h"
#include "common/random.h"

namespace heron {
namespace api {

/// \brief How a stream is partitioned across the consuming bolt's tasks.
enum class GroupingKind : uint8_t {
  kShuffle = 0,   ///< Uniform random task choice.
  kFields = 1,    ///< Hash of selected fields → one task (sticky per key).
  kAll = 2,       ///< Replicated to every task.
  kGlobal = 3,    ///< Always the lowest task id.
  kCustom = 5,    ///< User-provided function.
};

/// \brief User-defined grouping: maps (values, #tasks) to task indices.
/// Must be deterministic for a given input if replay consistency matters.
using CustomGroupingFn =
    std::function<std::vector<int>(const Values& values, int num_tasks)>;

/// \brief Resolves destination task ids for tuples on one (stream →
/// consumer) edge. Built once from the physical plan; the Stream Manager
/// keeps one per subscriber edge and calls it per tuple, with no
/// allocation on the single-destination paths.
class Router {
 public:
  /// \param kind          the grouping
  /// \param schema        producer's output schema on this stream
  /// \param grouping_fields  selected fields (kFields only)
  /// \param target_tasks  consumer task ids, sorted ascending
  /// \param seed          shuffle RNG seed (deterministic tests/sims)
  Router(GroupingKind kind, const Fields& schema, const Fields& grouping_fields,
         std::vector<TaskId> target_tasks, uint64_t seed = 1,
         CustomGroupingFn custom_fn = nullptr);

  /// Appends the destination task id(s) for `values` to `out`.
  /// kAll appends every target; kCustom appends the function's in-range
  /// picks (an out-of-range pick is logged and dropped); the others append
  /// exactly one. Only kFields and kCustom read `values`.
  void Route(const Values& values, std::vector<TaskId>* out);

  /// Single-destination fast path; valid for every kind except kAll and
  /// kCustom (which may fan out).
  TaskId RouteOne(const Values& values);

  GroupingKind kind() const { return kind_; }

  /// Positions of the grouping fields in the schema, ascending (kFields).
  /// The Stream Manager hashes these straight off the serialized tuple.
  const std::vector<int>& field_indices() const { return field_indices_; }

  /// Computes the fields-grouping hash of `values` with this router's
  /// selected field indices. Exposed for tests of routing determinism.
  uint64_t KeyHash(const Values& values) const;

  /// The kFields destination of a key hash (KeyHash, or the same hash
  /// peeked from serialized bytes).
  TaskId TaskForKeyHash(uint64_t hash) const {
    return target_tasks_[hash % target_tasks_.size()];
  }

 private:
  GroupingKind kind_;
  std::vector<int> field_indices_;  // Positions of grouping fields in schema.
  std::vector<TaskId> target_tasks_;
  Random rng_;
  CustomGroupingFn custom_fn_;
};

}  // namespace api
}  // namespace heron

#endif  // HERON_API_GROUPING_H_
