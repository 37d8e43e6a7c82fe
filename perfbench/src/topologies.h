#ifndef PERFBENCH_TOPOLOGIES_H_
#define PERFBENCH_TOPOLOGIES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/topology.h"
#include "common/config.h"
#include "common/result.h"
#include "histogram.h"

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Run control shared by the benchmark's main thread (writer) and the
/// engine threads running its spouts and bolts (readers).
///
/// The measurement window is `slices` back-to-back slices of
/// `slice_nanos` from `window_begin`; latency samples are kept per slice
/// (by the tuple's emit time) so each metric can be reported as
/// its median over slices, which a single host stall cannot move.
struct RunControl {
  /// Spouts stop emitting once set; the topology then drains.
  std::atomic<bool> stop{false};
  /// INT64_MAX until the window opens.
  std::atomic<int64_t> window_begin{INT64_MAX};
  int64_t slice_nanos = 1000000000;
  int slices = 1;
  /// Traced run: spouts and bolts time their collector calls.
  bool traced = false;

  /// The slice holding event time `t`, or -1 outside the window.
  int SliceOf(int64_t t) const {
    const int64_t begin = window_begin.load(std::memory_order_relaxed);
    if (t < begin) return -1;
    const int64_t slice = (t - begin) / slice_nanos;
    return slice < slices ? static_cast<int>(slice) : -1;
  }
};

/// Accumulated wall time of one kind of call (traced runs only).
struct CallTimer {
  uint64_t calls = 0;
  uint64_t nanos = 0;
  void Add(int64_t from, int64_t to) {
    ++calls;
    nanos += static_cast<uint64_t>(to - from);
  }
  void Merge(const CallTimer& o) {
    calls += o.calls;
    nanos += o.nanos;
  }
};

/// One spout task's results. The counters are published with release
/// stores by the spout's thread; the histograms and timers are read only
/// after the topology stopped.
struct SpoutState {
  explicit SpoutState(int slices) : latency(static_cast<size_t>(slices)) {}
  size_t stream = 0;  ///< Which WorkloadInputs::draws entry it emits.
  std::atomic<uint64_t> emitted{0};
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> failed{0};
  /// Complete latency per window slice, ns.
  std::vector<LatencyHistogram> latency;
  CallTimer emit;
};

/// One bolt task's results (same publication rules as SpoutState).
struct BoltState {
  explicit BoltState(int slices) : latency(static_cast<size_t>(slices)) {}
  std::atomic<uint64_t> executed{0};
  std::unordered_map<std::string, uint64_t> word_counts;
  std::vector<uint64_t> key_counts;
  uint64_t bad_payloads = 0;
  /// No-ack sinks: emit -> execute latency per window slice, ns.
  std::vector<LatencyHistogram> latency;
  CallTimer execute;  ///< User body, collector calls excluded.
  CallTimer ack;
};

/// Owns every task's result slot. Slots outlive the spout and bolt
/// objects, which the engine destroys when the topology stops.
class Ledger {
 public:
  explicit Ledger(int slices) : slices_(slices) {}

  SpoutState* AddSpout();
  BoltState* AddBolt(const std::string& component);

  const std::deque<std::unique_ptr<SpoutState>>& spouts() const {
    return spouts_;
  }
  /// Bolts of one component, in creation order.
  std::vector<BoltState*> Bolts(const std::string& component) const;
  std::vector<BoltState*> AllBolts() const;

  uint64_t Emitted() const;
  uint64_t Acked() const;
  uint64_t Failed() const;
  uint64_t Executed(const std::string& component) const;

 private:
  const int slices_;
  mutable std::mutex mutex_;
  std::deque<std::unique_ptr<SpoutState>> spouts_;
  std::deque<std::pair<std::string, std::unique_ptr<BoltState>>> bolts_;
};

/// Everything a workload's spouts read; generated from the seed before
/// the topology is submitted.
struct WorkloadInputs {
  std::vector<std::string> dictionary;
  /// Per spout task: the dictionary (or payload) indices it emits, in
  /// order, cycling when exhausted.
  std::vector<std::vector<uint32_t>> draws;
  std::vector<std::string> payloads;
};

/// Per-run wiring handed to the topology builders.
struct LiveRun {
  LiveRun(const WorkloadInputs* in, int slices, bool traced)
      : inputs(in), ledger(slices), base_nanos(NowNanos()) {
    control.slices = slices;
    control.traced = traced;
  }

  const WorkloadInputs* inputs;
  RunControl control;
  Ledger ledger;
  /// Time origin of spout message ids (a message id is an emit time
  /// relative to it, so acks need no lookup state).
  const int64_t base_nanos;
};

/// Component names the benchmark reads results by.
inline constexpr char kCountComponent[] = "count";
inline constexpr char kSinkComponent[] = "sink";

/// Paper §VI-A WordCount: `spouts` closed-loop word spouts (acking,
/// message ids, `per_call` words per NextTuple) fields-grouped into
/// `bolts` counting bolts.
heron::Result<std::shared_ptr<const heron::api::Topology>> BuildWordCount(
    LiveRun* run, int spouts, int bolts, int per_call,
    const heron::Config& config);

/// Bulk: one spout emitting (key, payload, emit time) tuples with no
/// message id, at most `max_in_flight` ahead of the sinks, shuffle-grouped
/// into `sinks` sinks that verify each payload against the generator's
/// table and tally keys.
heron::Result<std::shared_ptr<const heron::api::Topology>> BuildBulk(
    LiveRun* run, int sinks, int per_call, uint64_t max_in_flight,
    const heron::Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_TOPOLOGIES_H_
