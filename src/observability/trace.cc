#include "observability/trace.h"

#include <map>

namespace heron {
namespace observability {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kSpoutEmit:
      return "spout_emit";
    case TraceStage::kSmgrRoute:
      return "smgr_route";
    case TraceStage::kTransportHop:
      return "transport_hop";
    case TraceStage::kInstanceDequeue:
      return "instance_dequeue";
    case TraceStage::kExecute:
      return "execute";
    case TraceStage::kAckComplete:
      return "ack_complete";
  }
  return "unknown";
}

TraceBreakdown BuildTraceBreakdown(const std::vector<Span>& spans) {
  TraceBreakdown out;
  out.mean_delta_nanos.fill(0);
  // First-appearance order, first record per (trace, stage).
  std::map<uint64_t, size_t> index_of;
  for (const Span& span : spans) {
    auto [it, inserted] = index_of.try_emplace(span.trace_id, 0);
    if (inserted) {
      it->second = out.traces.size();
      TraceRecord rec;
      rec.trace_id = span.trace_id;
      rec.at_nanos.fill(-1);
      rec.delta_nanos.fill(-1);
      out.traces.push_back(rec);
    }
    TraceRecord& rec = out.traces[it->second];
    int64_t& at = rec.at_nanos[static_cast<size_t>(span.stage)];
    if (at < 0) at = span.at_nanos;
  }

  std::array<double, kNumTraceStages> delta_sum{};
  std::array<size_t, kNumTraceStages> delta_count{};
  double e2e_sum = 0;
  for (TraceRecord& rec : out.traces) {
    int64_t prev = -1;
    for (size_t stage = 0; stage < kNumTraceStages; ++stage) {
      const int64_t at = rec.at_nanos[stage];
      if (at < 0) continue;
      rec.delta_nanos[stage] = prev < 0 ? 0 : at - prev;
      prev = at;
    }
    const int64_t emit =
        rec.at_nanos[static_cast<size_t>(TraceStage::kSpoutEmit)];
    const int64_t ack =
        rec.at_nanos[static_cast<size_t>(TraceStage::kAckComplete)];
    if (emit >= 0 && ack >= 0) {
      rec.end_to_end_nanos = ack - emit;
      ++out.complete_count;
      e2e_sum += static_cast<double>(rec.end_to_end_nanos);
      for (size_t stage = 0; stage < kNumTraceStages; ++stage) {
        if (rec.delta_nanos[stage] >= 0) {
          delta_sum[stage] += static_cast<double>(rec.delta_nanos[stage]);
          ++delta_count[stage];
        }
      }
    }
  }
  if (out.complete_count > 0) {
    out.mean_end_to_end_nanos =
        e2e_sum / static_cast<double>(out.complete_count);
    for (size_t stage = 0; stage < kNumTraceStages; ++stage) {
      if (delta_count[stage] > 0) {
        // Mean over *complete* traces: stages that skipped (no transport
        // hop) contribute zero to the stack, keeping the stacked stage sum
        // equal to the mean end-to-end latency.
        out.mean_delta_nanos[stage] =
            delta_sum[stage] / static_cast<double>(out.complete_count);
      }
    }
  }
  return out;
}

}  // namespace observability
}  // namespace heron
