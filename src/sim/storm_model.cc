#include "sim/storm_model.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "metrics/metrics.h"
#include "sim/des.h"

namespace heron {
namespace sim {

namespace {

constexpr double kNs = 1e-9;
constexpr double kBackpressureBacklogSec = 0.002;
constexpr double kBackpressureRetrySec = 0.001;

class StormSim {
 public:
  StormSim(const StormSimConfig& config, const StormCostModel& costs)
      : config_(config), costs_(costs), rng_(config.seed) {}

  SimResult Run();

 private:
  struct SpoutState {
    int executor = 0;
    int64_t pending = 0;
    bool busy = false;
    bool waiting = false;
  };

  int WorkerOfExecutor(int e) const {
    return executor_worker_[static_cast<size_t>(e)];
  }

  void SpoutTryEmit(int s);
  /// Routes a spout batch: splits over destination executors, charging
  /// inline serialization for remote shares and the transfer pipeline.
  void RouteSpoutBatch(int s, int64_t n, double t_emit);
  void DeliverToBolts(int dest_executor, int src_spout, int64_t n,
                      double t_emit);
  void AckerProcess(int src_spout, int64_t n, double t_emit);
  void SpoutAckArrive(int s, int64_t n, double t_emit);
  void RecordLatency(double emitted_at);
  bool Measuring() const { return des_.now() >= config_.warmup_sec; }

  StormSimConfig config_;
  StormCostModel costs_;
  Random rng_;
  Des des_;

  std::vector<std::unique_ptr<SimServer>> executor_servers_;
  std::vector<std::unique_ptr<SimServer>> transfer_servers_;  ///< Per worker.
  std::vector<std::unique_ptr<SimServer>> receive_servers_;   ///< Per worker.
  std::vector<int> executor_worker_;
  std::vector<int> bolt_executor_;   ///< Bolt index → executor.
  std::vector<int> acker_executor_;  ///< Acker index → executor.
  std::vector<SpoutState> spout_state_;

  metrics::Histogram latency_;
  uint64_t delivered_ = 0;
  uint64_t acked_ = 0;
};

void StormSim::RecordLatency(double emitted_at) {
  if (!Measuring()) return;
  const double latency_sec = std::max(des_.now() - emitted_at, 0.0);
  latency_.Record(static_cast<uint64_t>(latency_sec * 1e9));
}

void StormSim::SpoutTryEmit(int s) {
  SpoutState& spout = spout_state_[static_cast<size_t>(s)];
  if (spout.busy) return;
  const int64_t n = costs_.batch_size;
  if (config_.acking && config_.max_spout_pending > 0 &&
      spout.pending + n > config_.max_spout_pending) {
    spout.waiting = true;
    return;
  }
  SimServer* executor = executor_servers_[static_cast<size_t>(spout.executor)].get();
  SimServer* transfer =
      transfer_servers_[static_cast<size_t>(WorkerOfExecutor(spout.executor))]
          .get();
  if (executor->Backlog() > kBackpressureBacklogSec ||
      transfer->Backlog() > kBackpressureBacklogSec) {
    spout.busy = true;
    des_.ScheduleAfter(kBackpressureRetrySec, [this, s] {
      spout_state_[static_cast<size_t>(s)].busy = false;
      SpoutTryEmit(s);
    });
    return;
  }

  spout.busy = true;
  // User logic plus the per-destination tuple copy and the queue dispatch
  // — all on the executor thread, Storm style.
  const double work =
      static_cast<double>(n) *
      (costs_.spout_user_ns + costs_.copy_alloc_ns +
       costs_.dispatch_per_message_ns);
  executor->Submit(work * kNs, [this, s, n] {
    SpoutState& state = spout_state_[static_cast<size_t>(s)];
    if (config_.acking) state.pending += n;
    RouteSpoutBatch(s, n, des_.now());
    state.busy = false;
    SpoutTryEmit(s);
  });
}

void StormSim::RouteSpoutBatch(int s, int64_t n, double t_emit) {
  // Fields grouping over a uniform dictionary: destinations uniform over
  // bolt tasks; aggregate per destination executor.
  std::map<int, int64_t> per_executor;
  for (int64_t k = 0; k < n; ++k) {
    const size_t bolt = rng_.NextBelow(bolt_executor_.size());
    ++per_executor[bolt_executor_[bolt]];
  }

  // Acker init messages (one per tuple) ride the same machinery.
  if (config_.acking && !acker_executor_.empty()) {
    std::map<int, int64_t> per_acker_executor;
    for (int64_t k = 0; k < n; ++k) {
      const size_t acker = rng_.NextBelow(acker_executor_.size());
      ++per_acker_executor[acker_executor_[acker]];
    }
    for (const auto& [e, count] : per_acker_executor) {
      const double work =
          static_cast<double>(count) * costs_.acker_process_ns;
      executor_servers_[static_cast<size_t>(e)]->Submit(work * kNs, [] {});
    }
  }

  const int src_executor = spout_state_[static_cast<size_t>(s)].executor;
  const int src_worker = WorkerOfExecutor(src_executor);
  for (const auto& [dest_executor, count] : per_executor) {
    const int dest_worker = WorkerOfExecutor(dest_executor);
    if (dest_worker == src_worker) {
      DeliverToBolts(dest_executor, s, count, t_emit);
      continue;
    }
    // Remote: serialize inline on the source executor, then transfer
    // thread → network → receive thread (deserializing) → dest executor.
    const double ser = static_cast<double>(count) * costs_.serialize_ns;
    const int64_t c = count;
    const int de = dest_executor;
    executor_servers_[static_cast<size_t>(src_executor)]->Submit(
        ser * kNs, [this, src_worker, dest_worker, de, s, c, t_emit] {
          const double transfer_work =
              costs_.transfer_per_batch_ns +
              static_cast<double>(c) * costs_.transfer_per_tuple_ns;
          transfer_servers_[static_cast<size_t>(src_worker)]->Submit(
              transfer_work * kNs, [this, dest_worker, de, s, c, t_emit] {
                const double wire =
                    (costs_.network_batch_ns +
                     static_cast<double>(c) * costs_.network_tuple_ns) *
                    kNs;
                des_.ScheduleAfter(wire, [this, dest_worker, de, s, c,
                                          t_emit] {
                  const double deser =
                      static_cast<double>(c) * costs_.deserialize_ns;
                  receive_servers_[static_cast<size_t>(dest_worker)]->Submit(
                      deser * kNs, [this, de, s, c, t_emit] {
                        DeliverToBolts(de, s, c, t_emit);
                      });
                });
              });
        });
  }
}

void StormSim::DeliverToBolts(int dest_executor, int src_spout, int64_t n,
                              double t_emit) {
  double per_tuple = costs_.dispatch_per_message_ns + costs_.bolt_user_ns;
  if (config_.acking) {
    // Emitting the ack message costs another dispatch + copy.
    per_tuple += costs_.dispatch_per_message_ns + costs_.copy_alloc_ns;
  }
  const double work = static_cast<double>(n) * per_tuple;
  executor_servers_[static_cast<size_t>(dest_executor)]->Submit(
      work * kNs, [this, src_spout, n, t_emit] {
        if (Measuring()) delivered_ += static_cast<uint64_t>(n);
        if (!config_.acking) {
          RecordLatency(t_emit);
          return;
        }
        AckerProcess(src_spout, n, t_emit);
      });
}

void StormSim::AckerProcess(int src_spout, int64_t n, double t_emit) {
  if (acker_executor_.empty()) {
    SpoutAckArrive(src_spout, n, t_emit);
    return;
  }
  // Distribute the n ack messages over acker tasks; each completion sends
  // one more message back to the spout's executor.
  std::map<int, int64_t> per_acker_executor;
  for (int64_t k = 0; k < n; ++k) {
    const size_t acker = rng_.NextBelow(acker_executor_.size());
    ++per_acker_executor[acker_executor_[acker]];
  }
  for (const auto& [e, count] : per_acker_executor) {
    const double work = static_cast<double>(count) * costs_.acker_process_ns;
    const int64_t c = count;
    executor_servers_[static_cast<size_t>(e)]->Submit(
        work * kNs,
        [this, src_spout, c, t_emit] { SpoutAckArrive(src_spout, c, t_emit); });
  }
}

void StormSim::SpoutAckArrive(int s, int64_t n, double t_emit) {
  SpoutState& spout = spout_state_[static_cast<size_t>(s)];
  const double work = static_cast<double>(n) * costs_.spout_ack_ns;
  executor_servers_[static_cast<size_t>(spout.executor)]->Submit(
      work * kNs, [this, s, n, t_emit] {
        SpoutState& state = spout_state_[static_cast<size_t>(s)];
        state.pending = std::max<int64_t>(0, state.pending - n);
        if (Measuring()) acked_ += static_cast<uint64_t>(n);
        RecordLatency(t_emit);
        if (state.waiting) {
          state.waiting = false;
          SpoutTryEmit(s);
        }
      });
}

SimResult StormSim::Run() {
  const int data_tasks = config_.spouts + config_.bolts;
  const int executors_for_data =
      (data_tasks + config_.tasks_per_executor - 1) /
      config_.tasks_per_executor;
  const int num_workers =
      (data_tasks + config_.tasks_per_worker - 1) / config_.tasks_per_worker;
  const int num_ackers =
      config_.acking
          ? (config_.num_ackers > 0 ? config_.num_ackers : num_workers)
          : 0;
  const int acker_executors =
      (num_ackers + config_.tasks_per_executor - 1) /
      std::max(config_.tasks_per_executor, 1);
  const int num_executors = executors_for_data + acker_executors;

  for (int e = 0; e < num_executors; ++e) {
    executor_servers_.push_back(
        std::make_unique<SimServer>(&des_, costs_.oversubscription));
    executor_worker_.push_back(e % num_workers);
  }
  for (int w = 0; w < num_workers; ++w) {
    transfer_servers_.push_back(
        std::make_unique<SimServer>(&des_, costs_.oversubscription));
    receive_servers_.push_back(
        std::make_unique<SimServer>(&des_, costs_.oversubscription));
  }

  // Task → executor assignment, spouts first: consecutive task ids share
  // an executor, `tasks_per_executor` at a time.
  spout_state_.resize(static_cast<size_t>(config_.spouts));
  int task = 0;
  for (int s = 0; s < config_.spouts; ++s, ++task) {
    spout_state_[static_cast<size_t>(s)].executor =
        task / config_.tasks_per_executor;
  }
  for (int b = 0; b < config_.bolts; ++b, ++task) {
    bolt_executor_.push_back(task / config_.tasks_per_executor);
  }
  for (int a = 0; a < num_ackers; ++a) {
    acker_executor_.push_back(executors_for_data +
                              a / std::max(config_.tasks_per_executor, 1));
  }

  for (int s = 0; s < config_.spouts; ++s) SpoutTryEmit(s);

  const double end = config_.warmup_sec + config_.measure_sec;
  des_.RunUntil(end);

  SimResult result;
  result.tuples_delivered = delivered_;
  result.tuples_acked = acked_;
  const uint64_t counted = config_.acking ? acked_ : delivered_;
  result.tuples_per_min =
      static_cast<double>(counted) / config_.measure_sec * 60.0;
  result.latency_ms_mean = latency_.Mean() / 1e6;
  result.latency_ms_p50 = static_cast<double>(latency_.Quantile(0.5)) / 1e6;
  result.latency_ms_p99 = static_cast<double>(latency_.Quantile(0.99)) / 1e6;
  result.cpu_cores_provisioned =
      static_cast<double>(num_workers * config_.tasks_per_worker);
  result.tuples_per_min_per_core =
      result.tuples_per_min / result.cpu_cores_provisioned;
  double max_util = 0;
  for (const auto& t : transfer_servers_) {
    max_util = std::max(max_util, t->busy_time() / end);
  }
  result.max_smgr_utilization = max_util;
  result.sim_events = des_.events_processed();
  return result;
}

}  // namespace

SimResult RunStormSim(const StormSimConfig& config,
                      const StormCostModel& costs) {
  StormSim sim(config, costs);
  return sim.Run();
}

}  // namespace sim
}  // namespace heron
