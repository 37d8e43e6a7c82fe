#ifndef HERON_OBSERVABILITY_TRACE_H_
#define HERON_OBSERVABILITY_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "observability/stamped_ring.h"

namespace heron {
namespace observability {

/// \brief The stations a traced tuple passes on its end-to-end path.
///
/// The stage timestamps telescope: the delta between two consecutive
/// *recorded* stages attributes that slice of wall-clock to the later
/// stage, so the per-stage deltas of one trace sum exactly to its
/// end-to-end latency (ack-complete − spout-emit). kTransportHop is only
/// recorded when the tuple crosses containers; local deliveries fold that
/// slice into kInstanceDequeue.
enum class TraceStage : uint8_t {
  kSpoutEmit = 0,       ///< SpoutCollector serialized + enqueued the tuple.
  kSmgrRoute = 1,       ///< Origin SMGR applied grouping, cached for drain.
  kTransportHop = 2,    ///< Remote SMGR received the routed batch.
  kInstanceDequeue = 3, ///< Destination instance parsed the tuple.
  kExecute = 4,         ///< Bolt Execute() returned.
  kAckComplete = 5,     ///< Spout learned the tuple tree finished.
};

inline constexpr size_t kNumTraceStages = 6;

/// Short stable name for dumps and JSON ("spout_emit", "smgr_route", ...).
const char* TraceStageName(TraceStage stage);

/// \brief One recorded trace event.
struct Span {
  uint64_t trace_id = 0;
  TraceStage stage = TraceStage::kSpoutEmit;
  /// Task id for instance-side stages, container id for SMGR-side stages.
  int32_t location = -1;
  int64_t at_nanos = 0;

  bool operator==(const Span& o) const {
    return trace_id == o.trace_id && stage == o.stage &&
           location == o.location && at_nanos == o.at_nanos;
  }

  // StampedRing codec: {trace_id, location | stage << 32, at_nanos}.
  static constexpr size_t kWords = 3;
  static void Pack(std::array<uint64_t, kWords>& words, uint64_t trace_id,
                   TraceStage stage, int32_t location, int64_t at_nanos) {
    words[0] = trace_id;
    words[1] = static_cast<uint32_t>(location) |
               uint64_t{static_cast<uint8_t>(stage)} << 32;
    words[2] = static_cast<uint64_t>(at_nanos);
  }
  static Span Unpack(const std::array<uint64_t, kWords>& words,
                     uint64_t /*seq*/) {
    return Span{words[0], static_cast<TraceStage>(words[1] >> 32),
                static_cast<int32_t>(static_cast<uint32_t>(words[1])),
                static_cast<int64_t>(words[2])};
  }
};

/// \brief Wait-free fixed-capacity span sink: one per container, shared by
/// its SMGR and all its instances. Record(trace_id, stage, location,
/// at_nanos) is wait-free and never allocates, so traced tuples cost
/// nanoseconds and untraced tuples never get here at all (callers gate on
/// trace_id != 0). On wrap the oldest spans are overwritten and counted in
/// dropped().
using SpanCollector = StampedRing<Span>;

/// \brief One traced tuple's assembled stage timeline.
struct TraceRecord {
  uint64_t trace_id = 0;
  /// First-recorded timestamp per stage; -1 when the stage never fired
  /// (e.g. kTransportHop on a container-local delivery).
  std::array<int64_t, kNumTraceStages> at_nanos;
  /// Wall-clock attributed to each stage: at[stage] − at[previous recorded
  /// stage]. Telescopes, so the deltas sum to last − first. -1 for absent
  /// stages (kSpoutEmit's delta is 0 by definition when present).
  std::array<int64_t, kNumTraceStages> delta_nanos;
  /// kAckComplete − kSpoutEmit; -1 until both endpoints recorded.
  int64_t end_to_end_nanos = -1;
  bool complete() const { return end_to_end_nanos >= 0; }
};

/// \brief Aggregate stage attribution across many traces (the stacked
/// panel of the latency-breakdown figure).
struct TraceBreakdown {
  std::vector<TraceRecord> traces;  ///< Ordered by first appearance.
  size_t complete_count = 0;        ///< Traces with both endpoints.
  /// Mean per-stage delta over complete traces (nanos; 0 when a stage
  /// never fired).
  std::array<double, kNumTraceStages> mean_delta_nanos;
  double mean_end_to_end_nanos = 0;
};

/// Groups spans by trace id (keeping the first record per stage) and
/// computes the telescoping per-stage attribution.
TraceBreakdown BuildTraceBreakdown(const std::vector<Span>& spans);

}  // namespace observability
}  // namespace heron

#endif  // HERON_OBSERVABILITY_TRACE_H_
