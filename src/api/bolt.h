#ifndef HERON_API_BOLT_H_
#define HERON_API_BOLT_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/tuple.h"
#include "common/config.h"

namespace heron {
namespace api {

class TopologyContext;

/// \brief Emission and acking surface handed to a bolt.
class IBoltOutputCollector {
 public:
  virtual ~IBoltOutputCollector() = default;

  /// Emits `values` on `stream`, anchored to `anchors`: failure of the
  /// emitted tuple fails every anchor's tuple tree.
  virtual void Emit(const StreamId& stream, const std::vector<const Tuple*>& anchors,
                    Values values) = 0;

  /// Marks `tuple` fully processed by this bolt.
  virtual void Ack(const Tuple& tuple) = 0;

  /// Marks `tuple` failed; the root spout will see Fail().
  virtual void Fail(const Tuple& tuple) = 0;

  /// Convenience: anchored emit on the default stream.
  void Emit(const Tuple& anchor, Values values) {
    Emit(kDefaultStreamId, {&anchor}, std::move(values));
  }
  /// Convenience: unanchored emit on the default stream.
  void Emit(Values values) { Emit(kDefaultStreamId, {}, std::move(values)); }
};

/// \brief A stream transformation — the user-code contract (§II: "bolts
/// perform computations on the streams they receive").
class IBolt {
 public:
  virtual ~IBolt() = default;

  /// Called once before any Execute.
  virtual void Prepare(const Config& config, TopologyContext* context,
                       IBoltOutputCollector* collector) = 0;

  /// Processes one input tuple. With acking enabled the bolt must Ack or
  /// Fail every tuple it receives (directly or via anchored emits).
  ///
  /// `input` is valid only during the call: the engine decodes the next
  /// tuple into the same object, overwriting its values, roots and key. A
  /// bolt that keeps a tuple past Execute (to ack or anchor it later) must
  /// copy it.
  virtual void Execute(const Tuple& input) = 0;

  virtual void Cleanup() {}
};

/// \brief A bolt whose state participates in checkpointing (exactly-once
/// delivery, ROADMAP item 2).
///
/// The executor treats the bolt as a deterministic state machine: when the
/// barriers of checkpoint N have arrived on every input channel (barrier
/// alignment), SnapshotState captures the state reflecting exactly the
/// tuples before those barriers; after a failure, RestoreState receives
/// the bytes of the latest globally-complete checkpoint before any
/// post-restore Execute. Serialization must be deterministic — two
/// instances that executed the same tuple sequence must produce identical
/// bytes (sort any unordered containers), since recovery tests compare
/// snapshots across universes byte for byte.
class IStatefulBolt : public IBolt {
 public:
  /// Appends this bolt's state to `out` (deterministic encoding).
  virtual void SnapshotState(std::string* out) = 0;

  /// Replaces this bolt's state with a previously snapshotted `state`.
  /// Called after Prepare and before any Execute.
  virtual void RestoreState(std::string_view state) = 0;
};

/// Factory the topology carries; one bolt object per Heron Instance.
using BoltFactory = std::function<std::unique_ptr<IBolt>()>;

}  // namespace api
}  // namespace heron

#endif  // HERON_API_BOLT_H_
