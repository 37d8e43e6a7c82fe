#ifndef HERON_COMMON_CONFIG_H_
#define HERON_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace heron {

/// \brief Hierarchical string key → typed value configuration.
///
/// The paper's modules are configured "either at topology submission time
/// through the command line or using special configuration files" (§II).
/// Config is the single mechanism: every module receives one at
/// Initialize() and reads only its own keys. Values are stored as strings
/// and parsed on access, mirroring Heron's .yaml-backed configuration.
class Config {
 public:
  Config() = default;

  /// Sets a key, overwriting any previous value.
  Config& Set(std::string_view key, std::string_view value);
  Config& SetInt(std::string_view key, int64_t value);
  Config& SetDouble(std::string_view key, double value);
  Config& SetBool(std::string_view key, bool value);

  bool Has(std::string_view key) const;

  /// Typed getters; return kNotFound for missing keys and
  /// kInvalidArgument for unparseable values.
  Result<std::string> GetString(std::string_view key) const;
  Result<int64_t> GetInt(std::string_view key) const;
  Result<double> GetDouble(std::string_view key) const;
  Result<bool> GetBool(std::string_view key) const;

  /// Getters with fallback, for optional keys with engine defaults.
  std::string GetStringOr(std::string_view key, std::string_view dflt) const;
  int64_t GetIntOr(std::string_view key, int64_t dflt) const;
  double GetDoubleOr(std::string_view key, double dflt) const;
  bool GetBoolOr(std::string_view key, bool dflt) const;

  /// Merges `overrides` on top of this config: keys in `overrides` win.
  /// This is how per-topology configuration layers over cluster defaults.
  Config MergedWith(const Config& overrides) const;

  /// Parses "key=value" lines (comments with '#', blank lines ignored);
  /// used for the "special configuration files" of §II.
  static Result<Config> FromKeyValueText(std::string_view text);

  size_t size() const { return values_.size(); }
  const std::map<std::string, std::string, std::less<>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

/// Well-known configuration keys used by the built-in modules.
namespace config_keys {

// Topology-level.
inline constexpr char kAckingEnabled[] = "heron.topology.acking";
inline constexpr char kMessageTimeoutMs[] = "heron.topology.message.timeout.ms";
inline constexpr char kMaxSpoutPending[] = "heron.topology.max.spout.pending";

// Resource manager / packing.
inline constexpr char kPackingAlgorithm[] = "heron.packing.algorithm";
inline constexpr char kContainerCpuHint[] = "heron.packing.container.cpu";
inline constexpr char kContainerRamMbHint[] = "heron.packing.container.ram.mb";
inline constexpr char kNumContainersHint[] = "heron.packing.num.containers";
/// MCTS packing (heron.packing.algorithm = MCTS): search budget in
/// simulations per decision and the RNG seed (the search is deterministic
/// for a fixed seed — two-universe tests depend on it).
inline constexpr char kMctsIterations[] = "heron.packing.mcts.iterations";
inline constexpr char kMctsSeed[] = "heron.packing.mcts.seed";
/// Per-instance emit rate hint (tuples/sec) weighing a component's output
/// edges in the MCTS cost function: heron.packing.mcts.rate.<component>.
/// Unset components default to a uniform rate.
inline constexpr char kMctsRatePrefix[] = "heron.packing.mcts.rate.";

// Auto-scaling (the TMaster's ScalingPolicyEngine, riding the monitor
// tick; requires the monitor and the metrics cache).
/// Master switch; off by default — scaling restarts containers.
inline constexpr char kScalingEnabled[] = "heron.scaling.enabled";
/// Fraction of a metrics window a topology may spend under backpressure
/// before the window counts as hot.
inline constexpr char kScalingBackpressureRatio[] =
    "heron.scaling.backpressure.ratio";
/// Per-task throughput skew (max/mean within a component) above which a
/// window counts as hot. 0 disables the skew detector.
inline constexpr char kScalingSkewThreshold[] = "heron.scaling.skew.threshold";
/// Consecutive hot windows before the engine fires (hysteresis: one
/// healthy window resets the streak).
inline constexpr char kScalingHotWindows[] = "heron.scaling.hot.windows";
/// Quiet period after a repack during which no new decision fires.
inline constexpr char kScalingCooldownMs[] = "heron.scaling.cooldown.ms";
/// Parallelism multiplier per scale-up (ceil; always grows by >= 1).
inline constexpr char kScalingFactor[] = "heron.scaling.factor";
/// Hard per-component parallelism ceiling for engine decisions.
inline constexpr char kScalingMaxParallelism[] =
    "heron.scaling.max.parallelism";

// Scheduler.
inline constexpr char kSchedulerKind[] = "heron.scheduler.kind";
/// Heartbeat-monitor cadence: how often the TMaster's liveness scan runs
/// and the width of one heartbeat interval. 0 disables failure detection.
inline constexpr char kSchedulerMonitorIntervalMs[] =
    "heron.scheduler.monitor.interval.ms";
/// Consecutive monitor intervals a container may stay silent before it is
/// declared dead.
inline constexpr char kSchedulerMonitorMissLimit[] =
    "heron.scheduler.monitor.miss.limit";

// Cluster runtime.
/// Step mode: containers and the monitor run threadless; the test drives
/// Container::Step() / LocalCluster::StepAll() + MonitorTick() by hand
/// (deterministic under a SimClock).
inline constexpr char kClusterStepMode[] = "heron.cluster.step.mode";
/// Wire transport between containers: "in-process" (default, direct
/// channel handoff), "socket" (unix-domain socketpair + framed stream) or
/// "shm" (shared-memory byte ring). The HERON_TRANSPORT_MODE environment
/// variable overrides the default when the key is unset (CI lanes).
inline constexpr char kTransportMode[] = "heron.transport.mode";

// Execution engine.
/// Module scheduling: "thread" (default, one thread per SMGR/instance
/// loop) or "cooperative" (a fixed thread-per-core runtime::TaskletPool
/// multiplexes every module loop as cooperative tasklets — the
/// Hazelcast-Jet tail-latency model). The HERON_EXECUTION_MODE
/// environment variable overrides the default when the key is unset (CI
/// lanes). Step mode wins: with kClusterStepMode set, no pool is built.
inline constexpr char kExecutionMode[] = "heron.execution.mode";
/// Cooperative idle policy: "condvar-park" (default), "adaptive-spin" or
/// "busy-spin" — what a pool worker does when none of its tasklets has
/// work (see runtime::IdlePolicy).
inline constexpr char kExecutionIdlePolicy[] = "heron.execution.idle.policy";
/// Cooperative worker count; 0 (default) = one per hardware core.
/// Negative values fail Submit.
inline constexpr char kExecutionWorkers[] = "heron.execution.workers";
/// Cooperative slice budget: target wall nanoseconds for one tasklet
/// slice, in (0, 1e9]; other values fail Submit. One step may run for 8
/// slice targets; a step drains the loop's own burst, clamped by the
/// per-envelope cost to fit that bound (8 per source while the loop is
/// cold, see runtime::Tasklet).
inline constexpr char kExecutionSliceNanos[] =
    "heron.execution.slice.target.nanos";

// State manager.
/// Backend LocalCluster builds at its first Submit: "IN_MEMORY" (default)
/// or "LOCAL_FILE"; another kind fails the submit.
inline constexpr char kStateManagerKind[] = "heron.statemgr.kind";
/// Root directory of the LOCAL_FILE tree (required by that backend).
inline constexpr char kStateManagerRoot[] = "heron.statemgr.root.path";

// Checkpointing (aligned barriers + snapshot restore).
/// Cadence at which the TMaster-side coordinator injects a checkpoint
/// barrier into every spout. 0 (default) disables checkpointing.
inline constexpr char kCheckpointIntervalMs[] = "heron.checkpoint.interval.ms";
/// Delivery semantics on container failure: "at-least-once" (default,
/// PR 4 ack-XOR replay) or "exactly-once" (restore every task from the
/// latest globally-complete checkpoint and replay from the snapshotted
/// spout offsets).
inline constexpr char kCheckpointMode[] = "heron.checkpoint.mode";

// Stream manager.
inline constexpr char kCacheDrainFrequencyMs[] =
    "heron.streammgr.cache.drain.frequency.ms";
inline constexpr char kCacheDrainSizeBytes[] =
    "heron.streammgr.cache.drain.size.bytes";
/// Parked retry entries at which an SMGR starts a cluster-wide
/// backpressure episode (kStartBackpressure to every peer).
inline constexpr char kBackpressureHighWater[] =
    "heron.streammgr.backpressure.highwater";
/// Parked retry entries at which an active episode releases
/// (kStopBackpressure). 0 = half the high watermark (hysteresis default).
inline constexpr char kBackpressureLowWater[] =
    "heron.streammgr.backpressure.lowwater";
/// Capacity (envelopes) of each Heron Instance's inbound queue. A slow
/// instance fills it; the SMGR's undeliverable sends then park in the
/// retry queue, which is what the backpressure watermarks measure.
inline constexpr char kInstanceInboundCapacity[] =
    "heron.instance.inbound.capacity";
/// Tuples an instance's outbox packs per data envelope before handing it
/// to the SMGR. 1 = per-tuple envelopes (every queued tuple is visible
/// to channel capacities and the backpressure watermarks).
inline constexpr char kInstanceEmitBatchTuples[] =
    "heron.instance.emit.batch.tuples";

// Metrics manager.
inline constexpr char kMetricsCollectIntervalMs[] =
    "heron.metricsmgr.collect.interval.ms";

// Observability (sampled tuple-path tracing + TMaster metrics cache).
/// Inverse sampling rate for tuple-path tracing: every Nth spout-emitted
/// tuple carries a trace id and yields a stage-by-stage latency breakdown.
/// 0 (default) disables tracing entirely — no per-tuple overhead.
inline constexpr char kTraceSampleInverse[] =
    "heron.observability.trace.sample.inverse";
/// Capacity (spans) of each container's wait-free span ring. Oldest spans
/// are overwritten on wrap.
inline constexpr char kTraceRingCapacity[] =
    "heron.observability.trace.ring.capacity";
/// Width of one MetricsCache aggregation window in seconds.
inline constexpr char kMetricsCacheWindowSec[] =
    "heron.observability.metricscache.window.sec";
/// Capacity (events) of each flight-recorder ring: one per container plus
/// one for the control plane. Always-on by default — control-plane events
/// are rare, so the ring is cheap; 0 turns the whole observability layer
/// (journal, scheduler profiler, timeline slices) dark.
inline constexpr char kJournalRingCapacity[] =
    "heron.observability.journal.ring.capacity";

}  // namespace config_keys

}  // namespace heron

#endif  // HERON_COMMON_CONFIG_H_
