#ifndef HERON_OBSERVABILITY_JOURNAL_H_
#define HERON_OBSERVABILITY_JOURNAL_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "observability/stamped_ring.h"

namespace heron {
namespace observability {

/// \brief The control-plane transitions the flight recorder captures.
///
/// Everything an operator asks "why did the engine do that?" about:
/// backpressure episodes, checkpoint barriers, scaling verdicts, container
/// lifecycle and plan swaps. Data-path tuples never land here — they have
/// their own sampled span rings (trace.h); the journal is always-on
/// precisely because control-plane events are rare enough to record all
/// of them.
enum class JournalEventType : uint8_t {
  kBackpressureStart = 0,   ///< Local SMGR tripped its high watermark.
  kBackpressureStop = 1,    ///< Local episode ended (arg0 = duration ns).
  kRemoteThrottleOn = 2,    ///< Peer SMGR announced start (arg0 = initiator).
  kRemoteThrottleOff = 3,   ///< Peer SMGR announced stop (arg0 = initiator).
  kCheckpointTriggered = 4, ///< Coordinator opened a barrier (arg0 = id).
  kCheckpointComplete = 5,  ///< All tasks snapshotted (arg0 = id).
  kCheckpointAborted = 6,   ///< In-flight checkpoint abandoned (arg0 = id).
  kCheckpointRestore = 7,   ///< Global rollback began (origin = the dead
                            ///< container, -1 for a repack; arg0 = id;
                            ///< arg1 = containers a repack halted).
  kScalingDecision = 8,     ///< Engine verdict (detail = component,
                            ///< arg0 = from parallelism, arg1 = to).
  kContainerStart = 9,      ///< Container (re)started.
  kContainerDead = 10,      ///< Liveness monitor declared death.
  kContainerRestored = 11,  ///< Recovery brought the container back.
  kPlanSwap = 12,           ///< New physical plan installed (detail = why).
};

inline constexpr size_t kNumJournalEventTypes = 13;

/// Short stable name for dumps and JSON ("backpressure_start", ...).
const char* JournalEventTypeName(JournalEventType type);

/// Fixed payload budget for the human-readable detail tag. Anything
/// longer is truncated at Record() time — the journal never allocates.
inline constexpr size_t kJournalDetailBytes = 16;

/// \brief One recorded control-plane event.
struct JournalEvent {
  /// Global record index within its ring — a per-ring monotonic sequence
  /// that survives wraparound (it keeps counting past capacity).
  uint64_t seq = 0;
  JournalEventType type = JournalEventType::kBackpressureStart;
  /// Originating container id; -1 for control-plane components (TMaster,
  /// coordinator, scaling engine, cluster runtime).
  int32_t origin = -1;
  /// Task id when the event is task-scoped; -1 otherwise.
  int32_t task = -1;
  int64_t at_nanos = 0;
  int64_t arg0 = 0;
  int64_t arg1 = 0;
  /// Short tag (component name, reason); at most kJournalDetailBytes.
  std::string detail;

  bool operator==(const JournalEvent& o) const {
    return seq == o.seq && type == o.type && origin == o.origin &&
           task == o.task && at_nanos == o.at_nanos && arg0 == o.arg0 &&
           arg1 == o.arg1 && detail == o.detail;
  }

  // StampedRing codec: {type, origin | task << 32, at_nanos, arg0, arg1,
  // detail bytes 0-7, detail bytes 8-15}. The detail is NUL-padded, so
  // unpacking stops at the first zero byte; detail may be nullptr and is
  // truncated to kJournalDetailBytes.
  static constexpr size_t kWords = 7;
  static void Pack(std::array<uint64_t, kWords>& words, JournalEventType type,
                   int32_t origin, int32_t task, int64_t at_nanos,
                   int64_t arg0, int64_t arg1, const char* detail = nullptr);
  static JournalEvent Unpack(const std::array<uint64_t, kWords>& words,
                             uint64_t seq);
};

/// \brief Wait-free bounded flight recorder: one ring per container plus
/// one for the control plane. Record(type, origin, task, at_nanos, arg0,
/// arg1, detail = nullptr) never locks or allocates, so it is safe from any
/// thread, including inside other components' critical sections. On wrap
/// the oldest events are overwritten and counted in dropped().
using EventJournal = StampedRing<JournalEvent>;

/// \brief One cooperative-scheduler slice: tasklet `tasklet` ran on worker
/// `worker` from `start_nanos` for `dur_nanos`. Only slices that made
/// progress are recorded — idle passes would drown the ring.
struct SchedSlice {
  int32_t worker = -1;
  int32_t tasklet = -1;  ///< Pool-assigned ordinal; names live in the pool.
  int64_t start_nanos = 0;
  int64_t dur_nanos = 0;

  bool operator==(const SchedSlice& o) const {
    return worker == o.worker && tasklet == o.tasklet &&
           start_nanos == o.start_nanos && dur_nanos == o.dur_nanos;
  }

  // StampedRing codec: {worker | tasklet << 32, start_nanos, dur_nanos}.
  static constexpr size_t kWords = 3;
  static void Pack(std::array<uint64_t, kWords>& words, int32_t worker,
                   int32_t tasklet, int64_t start_nanos, int64_t dur_nanos) {
    words[0] = static_cast<uint32_t>(worker) |
               uint64_t{static_cast<uint32_t>(tasklet)} << 32;
    words[1] = static_cast<uint64_t>(start_nanos);
    words[2] = static_cast<uint64_t>(dur_nanos);
  }
  static SchedSlice Unpack(const std::array<uint64_t, kWords>& words,
                           uint64_t /*seq*/) {
    return SchedSlice{static_cast<int32_t>(static_cast<uint32_t>(words[0])),
                      static_cast<int32_t>(words[0] >> 32),
                      static_cast<int64_t>(words[1]),
                      static_cast<int64_t>(words[2])};
  }
};

/// \brief Wait-free bounded ring of scheduler slices: Record(worker,
/// tasklet, start_nanos, dur_nanos). One per TaskletPool; workers record
/// concurrently, the timeline exporter snapshots live.
using SliceRing = StampedRing<SchedSlice>;

}  // namespace observability
}  // namespace heron

#endif  // HERON_OBSERVABILITY_JOURNAL_H_
