#ifndef HERON_API_TUPLE_H_
#define HERON_API_TUPLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/fields.h"
#include "api/values.h"
#include "common/ids.h"

namespace heron {
namespace api {

/// Random 64-bit identity of a spout-emitted tuple tree; 0 means the tuple
/// is not tracked (acking disabled or unanchored emit).
using TupleKey = uint64_t;

/// \brief A data tuple as seen by bolt user code.
///
/// Carries the values plus enough provenance (source component/stream/task)
/// for multi-input bolts to branch, and the ack bookkeeping the executor
/// needs when the bolt acks or anchors this tuple.
class Tuple {
 public:
  Tuple() = default;
  Tuple(ComponentId source_component, StreamId stream, TaskId source_task,
        Values values)
      : source_component_(std::move(source_component)),
        stream_(std::move(stream)),
        source_task_(source_task),
        values_(std::move(values)) {}

  const ComponentId& source_component() const { return source_component_; }
  const StreamId& stream() const { return stream_; }
  TaskId source_task() const { return source_task_; }
  /// Overwrites the provenance in place. The engine decodes every tuple it
  /// receives into one reused Tuple and sets this once per batch; assigning
  /// into the existing strings keeps their capacity.
  void set_source(std::string_view component, std::string_view stream,
                  TaskId source_task) {
    source_component_.assign(component);
    stream_.assign(stream);
    source_task_ = source_task;
  }

  const Values& values() const { return values_; }
  Values* mutable_values() { return &values_; }
  size_t size() const { return values_.size(); }

  const Value& at(size_t i) const { return values_[i]; }

  /// Typed accessors; behaviour is undefined (std::get throws) when the
  /// field holds a different type — user schema errors surface loudly.
  int64_t GetInt64(size_t i) const { return std::get<int64_t>(values_[i]); }
  double GetDouble(size_t i) const { return std::get<double>(values_[i]); }
  bool GetBool(size_t i) const { return std::get<bool>(values_[i]); }
  const std::string& GetString(size_t i) const {
    return std::get<std::string>(values_[i]);
  }

  /// Accessor by declared field name, resolved against the source
  /// component's output schema (wired in by the executor).
  const Value& GetByField(const Fields& schema, const std::string& name) const {
    return values_[static_cast<size_t>(schema.IndexOf(name))];
  }

  /// Ack bookkeeping: the XOR key of this tuple instance and the root
  /// spout-tuple keys it descends from (§ ack management in the SMGR).
  TupleKey tuple_key() const { return tuple_key_; }
  void set_tuple_key(TupleKey key) { tuple_key_ = key; }
  const std::vector<TupleKey>& roots() const { return roots_; }
  void set_roots(std::vector<TupleKey> roots) { roots_ = std::move(roots); }
  std::vector<TupleKey>* mutable_roots() { return &roots_; }

  /// Emission timestamp at the root spout (nanos), carried end-to-end for
  /// the latency measurements of Figs. 3, 9, 11, 13. The spout reads the
  /// clock once per NextTuple round: every tuple a round emits carries the
  /// time of its first emit, and an emit outside a round (from Open, Ack
  /// or Fail) carries its own.
  int64_t emit_time_nanos() const { return emit_time_nanos_; }
  void set_emit_time_nanos(int64_t t) { emit_time_nanos_ = t; }

 private:
  ComponentId source_component_;
  StreamId stream_{kDefaultStreamId};
  TaskId source_task_ = -1;
  Values values_;
  TupleKey tuple_key_ = 0;
  std::vector<TupleKey> roots_;
  int64_t emit_time_nanos_ = 0;
};

}  // namespace api
}  // namespace heron

#endif  // HERON_API_TUPLE_H_
