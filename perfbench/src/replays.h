#ifndef PERFBENCH_REPLAYS_H_
#define PERFBENCH_REPLAYS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/values.h"

namespace perfbench {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// A workload's shape, as the layer replays need it.
struct ReplaySpec {
  /// A sample of the workload's own tuples, generated from its seed.
  std::vector<heron::api::Values> tuples;
  bool fields_grouping = false;  ///< Route replay peeks field 0's hash.
  bool acking = false;           ///< Tuples carry roots; route peeks them.
  int dests = 4;              ///< Consumer tasks the cache batches for.
  size_t batch_tuples = 64;    ///< Tuples per batch and per frame.
  size_t drain_size_bytes = 1 << 20;
  size_t pending_roots = 8192;  ///< Roots in flight in the ack replay.
};

/// Single-threaded timings of the engine's public layer functions on the
/// spec's tuples: serde encode/decode, SMGR routing peeks, TupleCache
/// add+drain, AckTracker register+update, and a Fabric frame round trip
/// (SendFrame, then PumpLink until delivered) on each of the three wires.
/// Each figure is the median of several passes.
std::vector<Metric> RunReplays(const ReplaySpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAYS_H_
