// Live-engine benchmark: runs one workload on a LocalCluster,
// checks its output against a reference computed from the seed, and
// prints every metric by name and unit. The last line of stdout is one
// JSON object {correct, attempted, failed, metrics}; any failed check
// exits non-zero instead.
//
//   heron_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--corrupt-reference]
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced (timed collector calls,
// sampled tuple spans), and reports per-layer metrics from the traced run
// plus single-threaded replays of each layer's public functions.
//
// Both workloads are closed loops on one cooperative worker, and a run
// fails unless that worker is CPU-bound: otherwise throughput and latency
// would measure the SMGR drain timer instead of the engine.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "inputs.h"
#include "metrics/metrics_manager.h"
#include "observability/trace.h"
#include "replays.h"
#include "runtime/local_cluster.h"
#include "topologies.h"

using namespace perfbench;
namespace config_keys = heron::config_keys;
using heron::Config;
using heron::runtime::LocalCluster;

namespace {

using TopologyPtr = std::shared_ptr<const heron::api::Topology>;

/// A check failed: the run's numbers cannot be trusted.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void Check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// -- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  int workers = 1;
  bool acking = true;
  /// Spout tasks; each emits its own draw stream.
  int spouts = 1;
  /// Distinct values the spouts draw from (dictionary words or payloads).
  uint32_t range = 0;
  size_t draws_per_spout = 1 << 20;
  /// Bolt components every emitted tuple passes exactly once.
  std::vector<std::string> stages;
  /// The component whose state is checked against the reference tally.
  std::string tally_component;
  /// Engine knobs beyond the common ones.
  Config config;
  int64_t trace_sample_inverse = 64;
  int64_t trace_ring_capacity = 1 << 17;
  std::function<heron::Result<TopologyPtr>(LiveRun*, const Config&)> build;
  ReplaySpec replay;
};

/// Measurement slice; every slice must hold enough latency samples for
/// its own p99.9.
constexpr int64_t kSliceNanos = 250000000;

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "wordcount_acks") {
    w.workers = 1;
    w.spouts = 2;
    w.range = 450000;
    w.draws_per_spout = 1 << 21;
    w.stages = {kCountComponent};
    w.tally_component = kCountComponent;
    w.config.SetBool(config_keys::kAckingEnabled, true);
    w.config.SetInt(config_keys::kMaxSpoutPending, 8192);
    w.trace_sample_inverse = 128;
    w.trace_ring_capacity = 1 << 18;
    w.build = [](LiveRun* run, const Config& c) {
      return BuildWordCount(run, /*spouts=*/2, /*bolts=*/4, /*per_call=*/16,
                            c);
    };
    w.replay.fields_grouping = true;
    w.replay.acking = true;
    w.replay.dests = 4;
    w.replay.batch_tuples = 256;  // About what the 10 ms drain batches.
    w.replay.pending_roots = 8192;
  } else if (name == "bulk_noack") {
    w.workers = 1;
    w.spouts = 1;
    w.range = 256;
    w.stages = {kSinkComponent};
    w.tally_component = kSinkComponent;
    w.acking = false;
    w.config.SetBool(config_keys::kAckingEnabled, false);
    // The 4 MiB in flight (see BuildBulk) is 16 times the 256 KiB size
    // trigger, so the SMGR caches drain on size, about every 256 tuples,
    // and the 5 ms timer only sweeps up stragglers: the worker stays
    // CPU-bound and throughput measures per-tuple cost, not the timer.
    w.config.SetInt(config_keys::kCacheDrainFrequencyMs, 5);
    w.config.SetInt(config_keys::kCacheDrainSizeBytes, 256 << 10);
    w.trace_sample_inverse = 64;
    w.trace_ring_capacity = 1 << 17;
    w.build = [](LiveRun* run, const Config& c) {
      return BuildBulk(run, /*sinks=*/4, /*per_call=*/16,
                       /*max_in_flight=*/4096, c);
    };
    w.replay.fields_grouping = false;
    w.replay.acking = false;
    w.replay.dests = 4;
    w.replay.batch_tuples = 64;  // About one size drain, split over 4 sinks.
    w.replay.drain_size_bytes = 256 << 10;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (wordcount_acks | bulk_noack)");
  }
  w.config.SetInt(config_keys::kNumContainersHint, 2);
  w.config.Set(config_keys::kExecutionMode, "cooperative");
  w.config.SetInt(config_keys::kExecutionWorkers, w.workers);
  w.config.Set(config_keys::kTransportMode, "in-process");
  return w;
}

constexpr size_t kPayloadBytes = 1024;

WorkloadInputs MakeInputs(const Workload& w, uint64_t seed) {
  WorkloadInputs in;
  if (w.tally_component == kSinkComponent) {
    in.payloads = MakePayloads(w.range, kPayloadBytes, seed);
  } else {
    in.dictionary = MakeDictionary(w.range, seed);
  }
  for (int s = 0; s < w.spouts; ++s) {
    in.draws.push_back(MakeDraws(w.draws_per_spout, w.range, seed,
                                 static_cast<uint64_t>(s + 1)));
  }
  return in;
}

/// The replay's tuples: the first events of spout 0, as the spout emits
/// them.
ReplaySpec MakeReplaySpec(const Workload& w, const WorkloadInputs& in) {
  ReplaySpec spec = w.replay;
  const std::vector<uint32_t>& draws = in.draws.front();
  for (size_t i = 0; i < 4096; ++i) {
    const uint32_t d = draws[i % draws.size()];
    if (in.payloads.empty()) {
      spec.tuples.push_back({heron::api::Value(in.dictionary[d])});
    } else {
      spec.tuples.push_back({heron::api::Value(static_cast<int64_t>(d)),
                             heron::api::Value(in.payloads[d]),
                             heron::api::Value(static_cast<int64_t>(i))});
    }
  }
  return spec;
}

// -- Measurement helpers -----------------------------------------------------

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Resident set size now, from /proc/self/statm (pages).
double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  Check(static_cast<bool>(statm), "cannot read /proc/self/statm");
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Latest `container.loop.busy.ns` of every container housekeeping loop
/// (the Metrics Manager's own collection reactor), captured from the
/// collection rounds themselves.
class MetricsLayerSink final : public heron::metrics::IMetricsSink {
 public:
  void Flush(const std::string& source,
             const std::vector<heron::metrics::Sample>& samples,
             int64_t) override {
    for (const auto& s : samples) {
      if (s.name == "container.loop.busy.ns") {
        std::lock_guard<std::mutex> lock(mutex_);
        busy_ns_[source] = s.value;
        ++rounds_;
      }
    }
  }
  double BusyNs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0;
    for (const auto& [source, v] : busy_ns_) total += v;
    return total;
  }
  uint64_t rounds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rounds_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> busy_ns_;
  uint64_t rounds_ = 0;
};

/// Counters read at the window's edges.
struct Edge {
  int64_t at = 0;
  double cpu_s = 0;
  uint64_t completed = 0;
  uint64_t emitted = 0;
  // Traced runs only.
  uint64_t instance_busy_ns = 0;
  uint64_t smgr_busy_ns = 0;
  uint64_t routed = 0;
  uint64_t batches_out = 0;
  uint64_t bytes_out = 0;
  uint64_t acks_applied = 0;
  uint64_t roots_completed = 0;
  heron::ipc::FabricStats fabric;
  double sched_busy_ms = 0;
  double sched_wall_ms = 0;
  double metrics_busy_ns = 0;
  uint64_t metrics_rounds = 0;
};

struct LiveResult {
  std::vector<double> setups;  ///< Set-up times, s.
  double window_s = 0;
  uint64_t completed = 0;
  double cpu_s = 0;
  std::vector<LatencyHistogram> slice_latency;  ///< Per window slice.
  LatencyHistogram latency;  ///< The whole window.
  /// Peak RSS of the measured clusters, sampled at every slice edge and
  /// after the drain, MB.
  double rss_peak_mb = 0;
  uint64_t emitted = 0;
  uint64_t failed = 0;
  uint64_t backlog_end = 0;
  std::vector<Metric> layers;  ///< Traced runs only.
};

uint64_t Completed(const Workload& w, const LiveRun& run) {
  return w.acking ? run.ledger.Acked() : run.ledger.Executed(kSinkComponent);
}

Config EngineConfig(const Workload& w, bool traced) {
  Config c = w.config;
  if (traced) {
    c.SetInt(config_keys::kTraceSampleInverse, w.trace_sample_inverse);
    c.SetInt(config_keys::kTraceRingCapacity, w.trace_ring_capacity);
  }
  return c;
}

/// Constructs and submits the workload's topology, and returns once the
/// first tuple completed; `setup_s` measures exactly that span.
std::unique_ptr<LocalCluster> StartCluster(const Workload& w, LiveRun* run,
                                           bool traced, double* setup_s) {
  const int64_t t0 = NowNanos();
  auto cluster = std::make_unique<LocalCluster>();
  const Config config = EngineConfig(w, traced);
  auto topology = w.build(run, config);
  Check(topology.ok(), "topology build: " + topology.status().ToString());
  const heron::Status submitted = cluster->Submit(*topology);
  Check(submitted.ok(), "submit: " + submitted.ToString());
  const int64_t deadline = t0 + int64_t{60} * 1000000000;
  while (Completed(w, *run) == 0) {
    Check(NowNanos() < deadline, "no tuple completed within 60 s of submit");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  *setup_s = static_cast<double>(NowNanos() - t0) / 1e9;
  return cluster;
}

std::vector<heron::runtime::Container*> Containers(LocalCluster* cluster) {
  std::vector<heron::runtime::Container*> out;
  const heron::packing::PackingPlan plan = cluster->current_packing_plan();
  for (const auto& c : plan.containers()) {
    if (auto* container = cluster->GetContainer(c.id)) out.push_back(container);
  }
  return out;
}

Edge ReadEdge(const Workload& w, const LiveRun& run, LocalCluster* cluster,
              const MetricsLayerSink* sink, bool traced) {
  Edge e;
  e.at = NowNanos();
  e.cpu_s = ProcessCpuSeconds();
  e.completed = Completed(w, run);
  e.emitted = run.ledger.Emitted();
  if (!traced) return e;
  e.instance_busy_ns = cluster->SumCounter("instance.loop.busy.ns");
  e.smgr_busy_ns = cluster->SumSmgrCounter("smgr.loop.busy.ns");
  e.routed = cluster->SumSmgrCounter("smgr.tuples.routed");
  e.batches_out = cluster->SumSmgrCounter("smgr.batches.out");
  e.bytes_out = cluster->SumSmgrCounter("smgr.bytes.out");
  e.acks_applied = cluster->SumSmgrCounter("smgr.acks.applied");
  e.roots_completed = cluster->SumSmgrCounter("smgr.roots.completed");
  e.fabric = cluster->transport()->fabric_stats();
  const auto snapshot = cluster->BuildSnapshot();
  e.sched_busy_ms = snapshot.scheduler.busy_ms;
  e.sched_wall_ms = snapshot.scheduler.wall_ms;
  e.metrics_busy_ns = sink->BusyNs();
  e.metrics_rounds = sink->rounds();
  return e;
}

/// Per-stage self-time (the telescoping span deltas) of the traced tuples
/// emitted in the window, plus the gap between the stage self-times'
/// mean sum and the mean traced end-to-end latency. A trace ends at
/// ack-complete with acking, else at the sink's execute.
void AddTraceMetrics(const std::vector<heron::observability::Span>& spans,
                     const RunControl& control, bool acking,
                     std::vector<Metric>* out) {
  using heron::observability::TraceStage;
  const auto breakdown = heron::observability::BuildTraceBreakdown(spans);
  const TraceStage stages[] = {TraceStage::kSmgrRoute,
                               TraceStage::kTransportHop,
                               TraceStage::kInstanceDequeue,
                               TraceStage::kExecute, TraceStage::kAckComplete};
  std::vector<LatencyHistogram> self(std::size(stages));
  std::vector<double> self_sum(std::size(stages), 0);
  double e2e_sum = 0;
  uint64_t traces = 0;
  const size_t last = static_cast<size_t>(acking ? TraceStage::kAckComplete
                                                 : TraceStage::kExecute);
  for (const auto& rec : breakdown.traces) {
    const int64_t emit = rec.at_nanos[0];
    if (emit < 0 || rec.at_nanos[last] < 0 || control.SliceOf(emit) < 0) {
      continue;
    }
    ++traces;
    e2e_sum += static_cast<double>(rec.at_nanos[last] - emit);
    for (size_t i = 0; i < std::size(stages); ++i) {
      const int64_t d = rec.delta_nanos[static_cast<size_t>(stages[i])];
      if (d < 0) continue;
      self[i].Record(static_cast<uint64_t>(d));
      self_sum[i] += static_cast<double>(d);
    }
  }
  Check(traces >= 100, "fewer than 100 complete traced tuples in the window");
  double stage_mean_sum = 0;
  for (size_t i = 0; i < std::size(stages); ++i) {
    const std::string name =
        std::string("trace.") + heron::observability::TraceStageName(stages[i]) +
        "_us";
    out->push_back({name + ".p50", self[i].Quantile(0.5) / 1e3, "us"});
    out->push_back({name + ".p99", self[i].Quantile(0.99) / 1e3, "us"});
    stage_mean_sum += self_sum[i] / static_cast<double>(traces);
  }
  const double e2e_mean = e2e_sum / static_cast<double>(traces);
  const double gap = std::abs(stage_mean_sum - e2e_mean) / e2e_mean;
  out->push_back({"trace.traces", static_cast<double>(traces), "count"});
  out->push_back({"trace.telescope_gap", gap, "frac"});
  Check(gap <= 0.05, "stage self-times do not telescope to the traced "
                     "end-to-end latency within 5%");
}

std::string Format(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

/// One live run: `extra_setups` throwaway set-ups, then a cluster that
/// warms up, is measured for `slices` slices, drains, stops,
/// and has its output checked.
LiveResult RunLive(const Workload& w, const WorkloadInputs& inputs,
                   uint64_t seed, int slices, bool traced, int extra_setups,
                   bool corrupt_reference) {
  LiveResult r;
  // Extra set-ups: start, wait for the first completed tuple, tear down.
  for (int rep = 0; rep < extra_setups; ++rep) {
    LiveRun throwaway(&inputs, 1, traced);
    double s = 0;
    auto cluster = StartCluster(w, &throwaway, traced, &s);
    r.setups.push_back(s);
    throwaway.control.stop.store(true);
    cluster->Kill().ok();
  }

  LiveRun run(&inputs, slices, traced);
  run.control.slice_nanos = kSliceNanos;
  double setup = 0;
  auto cluster = StartCluster(w, &run, traced, &setup);
  r.setups.push_back(setup);

  auto sink = std::make_shared<MetricsLayerSink>();
  std::vector<heron::runtime::Container*> containers = Containers(cluster.get());
  if (traced) {
    for (auto* c : containers) c->metrics_manager()->AddSink(sink);
  }

  SleepSeconds(1.0);  // Warm-up: pools, count tables, tasklet budgets.

  const Edge begin = ReadEdge(w, run, cluster.get(), sink.get(), traced);
  run.control.window_begin.store(begin.at);
  const int64_t slice_nanos = run.control.slice_nanos;
  for (int slice = 1; slice <= slices; ++slice) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        begin.at + slice * slice_nanos - NowNanos()));
    r.rss_peak_mb = std::max(r.rss_peak_mb, RssMb());
  }
  const Edge end = ReadEdge(w, run, cluster.get(), sink.get(), traced);
  r.window_s = static_cast<double>(end.at - begin.at) / 1e9;
  r.completed = end.completed - begin.completed;
  r.cpu_s = end.cpu_s - begin.cpu_s;
  r.backlog_end = end.emitted - end.completed;

  // Stop the generators and let every emitted tuple finish.
  run.control.stop.store(true);
  const int64_t drain_deadline = NowNanos() + int64_t{60} * 1000000000;
  for (;;) {
    const uint64_t emitted = run.ledger.Emitted();
    const uint64_t done = w.acking ? run.ledger.Acked() + run.ledger.Failed()
                                   : run.ledger.Executed(kSinkComponent);
    if (done == emitted) break;
    Check(NowNanos() < drain_deadline,
          "drain: " + std::to_string(emitted - done) +
              " emitted tuples never completed (acked + failed != emitted)");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t payload_touches =
      cluster->SumSmgrCounter("smgr.payload_touches");
  r.rss_peak_mb = std::max(r.rss_peak_mb, RssMb());

  // Quiescent now: nothing in flight, so the SMGR caches are idle.
  heron::smgr::TupleCache::Stats cache;
  for (auto* c : containers) {
    const auto& s = c->stream_manager()->cache_stats();
    cache.tuples_added += s.tuples_added;
    cache.timer_drains += s.timer_drains;
    cache.size_drains += s.size_drains;
  }
  std::vector<heron::observability::Span> spans;
  if (traced) spans = cluster->CollectSpans();
  Check(cluster->Kill().ok(), "kill");
  cluster.reset();

  // -- Correctness -----------------------------------------------------------
  r.emitted = run.ledger.Emitted();
  r.failed = run.ledger.Failed();
  Check(r.failed == 0, std::to_string(r.failed) + " tuple trees failed");
  Check(payload_touches == 0, "smgr.payload_touches = " +
                                  std::to_string(payload_touches) +
                                  " (zero-copy forwarding broken)");
  for (const std::string& stage : w.stages) {
    const uint64_t executed = run.ledger.Executed(stage);
    Check(executed == r.emitted, stage + " executed " +
                                     std::to_string(executed) +
                                     " tuples, spouts emitted " +
                                     std::to_string(r.emitted));
  }
  std::vector<uint64_t> reference(w.range, 0);
  for (const auto& spout : run.ledger.spouts()) {
    const auto tally = ReferenceTally(
        w.range, seed, spout->stream + 1, w.draws_per_spout,
        spout->emitted.load(std::memory_order_acquire));
    for (uint32_t i = 0; i < w.range; ++i) reference[i] += tally[i];
  }
  if (corrupt_reference) reference[0] += 1;
  std::vector<uint64_t> observed(w.range, 0);
  const std::vector<BoltState*> tally_bolts = run.ledger.Bolts(w.tally_component);
  if (w.tally_component == kSinkComponent) {
    for (const BoltState* b : tally_bolts) {
      Check(b->bad_payloads == 0, "a sink received a corrupted payload");
      for (uint32_t i = 0; i < w.range; ++i) observed[i] += b->key_counts[i];
    }
  } else {
    std::unordered_map<std::string_view, uint32_t> index;
    index.reserve(inputs.dictionary.size());
    for (uint32_t i = 0; i < inputs.dictionary.size(); ++i) {
      index.emplace(inputs.dictionary[i], i);
    }
    std::vector<int> owner(w.range, -1);
    for (size_t b = 0; b < tally_bolts.size(); ++b) {
      for (const auto& [word, count] : tally_bolts[b]->word_counts) {
        const auto it = index.find(word);
        Check(it != index.end(), "counted a word not in the dictionary");
        Check(owner[it->second] < 0,
              "word '" + word + "' counted by two bolts (fields grouping)");
        owner[it->second] = static_cast<int>(b);
        observed[it->second] += count;
      }
    }
  }
  for (uint32_t i = 0; i < w.range; ++i) {
    Check(observed[i] == reference[i],
          "tally mismatch at value " + std::to_string(i) + ": counted " +
              std::to_string(observed[i]) + ", reference " +
              std::to_string(reference[i]));
  }

  r.slice_latency.resize(static_cast<size_t>(slices));
  auto merge = [&](const std::vector<LatencyHistogram>& per_slice) {
    for (size_t i = 0; i < per_slice.size(); ++i) {
      r.slice_latency[i].Merge(per_slice[i]);
      r.latency.Merge(per_slice[i]);
    }
  };
  for (const auto& spout : run.ledger.spouts()) merge(spout->latency);
  for (const BoltState* b : run.ledger.AllBolts()) merge(b->latency);

  if (!traced) return r;

  // -- Per-layer metrics (traced run) ----------------------------------------
  CallTimer execute, emit, ack;
  for (const BoltState* b : run.ledger.AllBolts()) {
    execute.Merge(b->execute);
    ack.Merge(b->ack);
  }
  for (const auto& spout : run.ledger.spouts()) emit.Merge(spout->emit);
  const double window_ns = static_cast<double>(end.at - begin.at);
  const double pool_ns = window_ns * w.workers;
  const uint64_t routed = end.routed - begin.routed;
  const uint64_t frames = end.fabric.frames_sent - begin.fabric.frames_sent;
  const uint64_t drains = cache.timer_drains + cache.size_drains;
  std::vector<Metric>& m = r.layers;
  m.push_back({"api.execute_ns",
               Ratio(static_cast<double>(execute.nanos), execute.calls), "ns"});
  m.push_back({"instance.emit_ns",
               Ratio(static_cast<double>(emit.nanos), emit.calls), "ns"});
  m.push_back({"instance.ack_ns",
               Ratio(static_cast<double>(ack.nanos), ack.calls), "ns"});
  m.push_back({"instance.loop_busy_frac",
               (end.instance_busy_ns - begin.instance_busy_ns) / pool_ns,
               "frac"});
  m.push_back({"smgr.loop_busy_frac",
               (end.smgr_busy_ns - begin.smgr_busy_ns) / pool_ns, "frac"});
  m.push_back({"metrics.loop_busy_frac",
               (end.metrics_busy_ns - begin.metrics_busy_ns) / pool_ns,
               "frac"});
  m.push_back({"metrics.collect_rounds_per_s",
               (end.metrics_rounds - begin.metrics_rounds) / (window_ns / 1e9),
               "1/s"});
  m.push_back({"runtime.worker_busy_frac",
               Ratio(end.sched_busy_ms - begin.sched_busy_ms,
                     end.sched_wall_ms - begin.sched_wall_ms),
               "frac"});
  m.push_back({"smgr.tuples_per_batch",
               Ratio(routed, end.batches_out - begin.batches_out), "tuples"});
  m.push_back({"smgr.bytes_per_tuple",
               Ratio(end.bytes_out - begin.bytes_out, routed), "bytes"});
  m.push_back({"smgr.acks_per_root",
               Ratio(end.acks_applied - begin.acks_applied,
                     end.roots_completed - begin.roots_completed),
               "count"});
  m.push_back({"smgr.payload_touches", static_cast<double>(payload_touches),
               "count"});
  m.push_back({"smgr.cache.tuples_per_drain",
               Ratio(cache.tuples_added, drains), "tuples"});
  m.push_back({"smgr.cache.size_drain_frac", Ratio(cache.size_drains, drains),
               "frac"});
  // Of the fabric's counters only frames move here: the in-process wire
  // counts no bytes or partial writes (the ipc.roundtrip replays time the
  // socket and shm wires), and no sink stalls, SMGR retries or
  // backpressure occur while the in-flight windows stay far below the
  // channel capacities.
  m.push_back({"ipc.frames_per_s", frames / (window_ns / 1e9), "1/s"});
  m.push_back({"gen.backlog_end", static_cast<double>(r.backlog_end),
               "count"});
  AddTraceMetrics(spans, run.control, w.acking, &m);
  return r;
}

/// Pools `from` (a later trial) into `into`.
void Pool(LiveResult* into, LiveResult from) {
  auto append = [](auto* to, const auto& more) {
    to->insert(to->end(), more.begin(), more.end());
  };
  append(&into->setups, from.setups);
  append(&into->slice_latency, from.slice_latency);
  into->rss_peak_mb = std::max(into->rss_peak_mb, from.rss_peak_mb);
  into->latency.Merge(from.latency);
  into->window_s += from.window_s;
  into->completed += from.completed;
  into->cpu_s += from.cpu_s;
  into->emitted += from.emitted;
  into->failed += from.failed;
  into->backlog_end = from.backlog_end;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_reference = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = std::stoi(value()) != 0;
    } else if (flag == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void PrintLatencyLine(const LatencyHistogram& h) {
  std::printf("# latency samples=%llu p50_ms=%s p99_ms=%s p999_ms=%s",
              static_cast<unsigned long long>(h.count()),
              Format(h.Quantile(0.5) / 1e6).c_str(),
              Format(h.Quantile(0.99) / 1e6).c_str(),
              Format(h.Quantile(0.999) / 1e6).c_str());
  if (h.SamplesBeyond(0.9999) >= 10) {
    std::printf(" p9999_ms=%s", Format(h.Quantile(0.9999) / 1e6).c_str());
  }
  std::printf(" beyond_p999=%llu\n",
              static_cast<unsigned long long>(h.SamplesBeyond(0.999)));
}

void PrintResult(uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Format(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(const Args& args) {
  const Workload w = MakeWorkload(args.workload);
  const WorkloadInputs inputs = MakeInputs(w, args.seed);
  // peak_rss_mb is the growth over this: the process with its inputs
  // built (and the scratch of building them handed back), before any
  // cluster exists. What grows past it is the engine's, plus the state of
  // the workload's own bolts.
  malloc_trim(0);
  const double rss_baseline_mb = RssMb();
  std::printf("# workload=%s seed=%llu seconds=%s trace=%d workers=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              Format(args.seconds).c_str(), args.trace ? 1 : 0, w.workers);

  // End-to-end figures come from untraced runs; a traced invocation then
  // repeats the workload traced and reports its layers. The window is
  // whole slices, split over up to six fresh clusters: each cluster
  // settles into its own operating point (batch sizes, slice budgets,
  // heap layout), so pooling the slices of several keeps one cluster's
  // luck from setting the run's figures.
  const int slices = std::max(
      1, static_cast<int>(std::lround(args.seconds * 1e9 / kSliceNanos)));
  const int trials =
      args.trace ? 1 : std::clamp(static_cast<int>(args.seconds / 5), 1, 6);
  LiveResult plain;
  for (int t = 0; t < trials; ++t) {
    Pool(&plain, RunLive(w, inputs, args.seed, slices / trials,
                         /*traced=*/false, /*extra_setups=*/args.trace ? 0 : 1,
                         args.corrupt_reference));
  }
  std::printf("# setup_s samples");
  for (double s : plain.setups) std::printf(" %s", Format(s).c_str());
  std::printf("\n# rss_mb baseline=%.1f peak=%.1f\n", rss_baseline_mb,
              plain.rss_peak_mb);
  const double cores = plain.cpu_s / plain.window_s;
  // Totals over the window: this host's cores alternate between fast and
  // slow phases, and a plain mean follows the mix of phases smoothly,
  // where a median or trimmed mean of slices jumps between their levels.
  const double throughput =
      static_cast<double>(plain.completed) / plain.window_s;
  std::printf("# untraced: completed=%llu window_s=%s cpu_cores=%s "
              "backlog_end=%llu\n",
              static_cast<unsigned long long>(plain.completed),
              Format(plain.window_s).c_str(), Format(cores).c_str(),
              static_cast<unsigned long long>(plain.backlog_end));
  PrintLatencyLine(plain.latency);
  Check(cores >= 0.9 * w.workers,
        "not CPU-bound: " + Format(cores) + " cores busy of " +
            std::to_string(w.workers) +
            " workers, so the run measures timers, not the engine");
  // Latency metrics are medians over slices of each slice's quantile,
  // taken over the slices with at least ten samples beyond their p99.9
  // (a host stall can starve a slice); most slices must qualify. p99.9 is
  // printed, not reported: it swings with host scheduling from run to
  // run, wider than any bound a regression gate could use.
  std::vector<double> p50, p99, p999;
  for (const LatencyHistogram& h : plain.slice_latency) {
    if (h.SamplesBeyond(0.999) < 10) continue;
    p50.push_back(h.Quantile(0.5) / 1e6);
    p99.push_back(h.Quantile(0.99) / 1e6);
    p999.push_back(h.Quantile(0.999) / 1e6);
  }
  Check(p999.size() * 2 > plain.slice_latency.size(),
        "most window slices have too few latency samples to report p99.9");
  std::printf("# slice_p50_ms");
  for (double v : p50) std::printf(" %.3f", v);
  std::printf("\n# slice_p99_ms");
  for (double v : p99) std::printf(" %.3f", v);
  std::printf("\n# slice_p999_ms");
  for (double v : p999) std::printf(" %.3f", v);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"throughput_tps", throughput, "1/s"},
        {"tuples_per_cpu_s",
         static_cast<double>(plain.completed) / plain.cpu_s, "tuples/cpu_s"},
        {"lat_p50_ms", Median(p50), "ms"},
        {"lat_p99_ms", Median(p99), "ms"},
        {"setup_s", Median(plain.setups), "s"},
        {"peak_rss_mb", plain.rss_peak_mb - rss_baseline_mb, "MB"},
    };
    PrintResult(plain.emitted, plain.failed, metrics);
    return 0;
  }

  LiveResult traced = RunLive(w, inputs, args.seed, slices, /*traced=*/true,
                              /*extra_setups=*/0, args.corrupt_reference);
  metrics = std::move(traced.layers);
  metrics.push_back({"trace.overhead_ratio",
                     Ratio(throughput, static_cast<double>(traced.completed) /
                                           traced.window_s),
                     "ratio"});
  for (Metric& replay : RunReplays(MakeReplaySpec(w, inputs))) {
    metrics.push_back(std::move(replay));
  }
  PrintResult(plain.emitted + traced.emitted, plain.failed + traced.failed,
              metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  heron::Logging::SetLevel(heron::LogLevel::kError);
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "error: %s\nusage: heron_perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--corrupt-reference]\n",
                 e.what());
    return 2;
  }
  try {
    return Run(args);
  } catch (const CheckFailure& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
