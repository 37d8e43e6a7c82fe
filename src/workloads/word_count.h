#ifndef HERON_WORKLOADS_WORD_COUNT_H_
#define HERON_WORKLOADS_WORD_COUNT_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/context.h"
#include "api/topology.h"
#include "common/random.h"

namespace heron {
namespace workloads {

/// \brief The paper's benchmark workload (§VI-A): "the spout picks a word
/// at random from a set of 450K English words and emits it. ... The spouts
/// use hash partitioning to distribute the words to the bolts which in
/// turn count the number of times each word was encountered."
///
/// The dictionary is synthetic (the paper's word list is not published):
/// `dictionary_size` pseudo-words of length 4-12, generated from a fixed
/// seed so every run and every instance draws from the same set.
class WordDictionary {
 public:
  explicit WordDictionary(size_t size = 450000, uint64_t seed = 2017);

  const std::string& WordAt(size_t index) const { return words_[index]; }
  size_t size() const { return words_.size(); }

  /// Shared 450K-word instance (built once, ~5MB).
  static const WordDictionary& Default();

 private:
  std::vector<std::string> words_;
};

/// \brief The word-emitting spout. "Spouts are extremely fast, if left
/// unrestricted" — NextTuple emits `words_per_call` words per invocation.
///
/// Stateful-spout surface: the replay cursor (RNG state, emission count,
/// next message id) snapshots into checkpoints, so after a restore the
/// spout deterministically re-emits exactly the post-checkpoint suffix of
/// its word sequence (same words, same ids).
class WordSpout final : public api::IStatefulSpout {
 public:
  struct Options {
    size_t dictionary_size = 450000;
    int words_per_call = 1;
    /// Stop after this many emits; 0 = unbounded. Used by tests that need
    /// a finite stream.
    uint64_t emit_limit = 0;
    /// At-least-once source semantics: remember each in-flight word by its
    /// message id and re-emit it (same id, same word) when the ack tracker
    /// reports it failed — e.g. because its tuple tree died with a killed
    /// container and the message timeout replayed it. Replays do not count
    /// toward `emit_limit`, so "`emit_limit` distinct words all acked"
    /// remains the zero-loss acceptance condition under faults. Off in
    /// exactly-once mode, where checkpoint restore owns recovery.
    bool replay_failed = false;
    /// First N words go out unanchored even with acking on: they carry no
    /// message id, join no tuple tree, and therefore leave no complete-
    /// latency sample. Latency benches use this as a warmup phase — cold-
    /// start tuples (first-touch page faults, lazy pool growth) otherwise
    /// own the deep-tail quantiles of a short run.
    uint64_t warmup_emits = 0;
    /// Fixed offered load in words/sec; 0 = unrestricted ("spouts are
    /// extremely fast, if left unrestricted"). Token-bucket against the
    /// wall clock, so latency benches can compare execution modes below
    /// saturation — equal throughput by construction, with the latency
    /// distribution isolating scheduling. Wall-clock based: leave at 0
    /// under a virtual clock (it would break replay determinism).
    double target_rate_per_sec = 0;
  };

  explicit WordSpout(const Options& options) : options_(options) {}

  void Open(const Config& config, api::TopologyContext* context,
            api::ISpoutOutputCollector* collector) override;
  void NextTuple() override;
  void Ack(int64_t message_id) override {
    ++acked_;
    if (options_.replay_failed) {
      inflight_.erase(message_id);
      // Forget any queued replay for this id: the tree completed via a
      // later ack, so re-emitting it now would double-deliver.
      replay_pending_.erase(message_id);
    }
  }
  void Fail(int64_t message_id) override {
    ++failed_;
    // The pending-set insert dedupes: a root that fails twice before its
    // replay drains (message timeout firing again) used to be enqueued
    // twice and re-emitted twice.
    if (options_.replay_failed && inflight_.count(message_id) > 0 &&
        replay_pending_.insert(message_id).second) {
      replay_queue_.push_back(message_id);
    }
  }

  // IStatefulSpout: the replay cursor. Volatile counters (acked/failed/
  // replayed) and the replay maps are deliberately excluded so the same
  // logical position always snapshots to the same bytes.
  void SnapshotState(std::string* out) override;
  void RestoreState(std::string_view state) override;

  uint64_t emitted() const { return emitted_; }
  uint64_t acked() const { return acked_; }
  uint64_t failed() const { return failed_; }
  /// Failed roots re-emitted so far (replay_failed mode).
  uint64_t replayed() const { return replayed_; }
  /// Words emitted but neither acked nor failed yet (replay_failed mode).
  size_t inflight() const { return inflight_.size(); }
  /// Emissions that exceeded `kReplayTrackLimit` and went untracked.
  uint64_t replay_dropped() const { return replay_dropped_; }

 private:
  Options options_;
  api::ISpoutOutputCollector* collector_ = nullptr;
  const WordDictionary* dictionary_ = nullptr;
  std::unique_ptr<WordDictionary> owned_dictionary_;
  Random rng_{2017};
  bool acking_ = false;
  uint64_t emitted_ = 0;
  uint64_t acked_ = 0;
  uint64_t failed_ = 0;
  uint64_t replayed_ = 0;
  uint64_t replay_dropped_ = 0;
  metrics::Counter* replay_dropped_counter_ = nullptr;
  int64_t next_message_id_ = 1;
  /// Token-bucket state for `target_rate_per_sec`: last refill time (wall
  /// nanoseconds; -1 = not started) and the accumulated token balance,
  /// capped at `words_per_call` so a stalled spout cannot bank debt.
  int64_t rate_epoch_nanos_ = -1;
  double rate_tokens_ = 0;
  /// Cap on the replay-tracking maps (`inflight_` + the pending-replay
  /// set): an endless downstream outage must not grow them without
  /// bound. Beyond the cap new emissions go untracked (unable to
  /// replay) and the `replay.dropped` counter records each loss.
  static constexpr size_t kReplayTrackLimit = 1 << 16;
  /// message id → dictionary index of the word it carried (replay mode).
  /// Bounded by `kReplayTrackLimit`.
  std::unordered_map<int64_t, size_t> inflight_;
  /// Failed ids awaiting re-emission, FIFO. Members mirror
  /// `replay_pending_`, which both dedupes and bounds the queue.
  std::deque<int64_t> replay_queue_;
  /// Ids currently queued for replay (dedupe + ack-drain bookkeeping).
  std::unordered_set<int64_t> replay_pending_;
};

/// Per-tuple artificial work in CountBolt::Execute, microseconds (busy
/// spin, so the cost is CPU like real user logic, not a scheduler yield).
/// 0 = off. The auto-scaling tests use it to make the bolt a genuine
/// bottleneck that trips real backpressure under load.
inline constexpr char kCountBoltDelayUs[] = "heron.workload.count.delay.us";

/// \brief The counting bolt: tallies words and acks every input.
///
/// Stateful-bolt surface: the word→count table snapshots in sorted order
/// (deterministic bytes — recovery tests byte-compare snapshots across
/// universes) and restores wholesale, making the bolt a deterministic
/// replicated state machine over its aligned input prefix.
class CountBolt final : public api::IStatefulBolt {
 public:
  void Prepare(const Config& config, api::TopologyContext* context,
               api::IBoltOutputCollector* collector) override {
    collector_ = collector;
    delay_us_ = config.GetIntOr(kCountBoltDelayUs, 0);
  }

  void Execute(const api::Tuple& input) override {
    ++counts_[input.GetString(0)];
    ++executed_;
    if (delay_us_ > 0) BurnCpu();
    collector_->Ack(input);
  }

  void SnapshotState(std::string* out) override;
  void RestoreState(std::string_view state) override;

  uint64_t executed() const { return executed_; }
  const std::unordered_map<std::string, uint64_t>& counts() const {
    return counts_;
  }

 private:
  void BurnCpu() const;

  api::IBoltOutputCollector* collector_ = nullptr;
  std::unordered_map<std::string, uint64_t> counts_;
  uint64_t executed_ = 0;
  int64_t delay_us_ = 0;
};

/// \brief A pass-through relay: re-emits each word anchored to its input
/// and acks it. Chained between the spout and the counting sink it
/// deepens the tuple tree, so end-to-end complete latency crosses one
/// module handoff per stage — the knob latency figures turn to scale the
/// per-hop scheduling cost they measure.
class RelayBolt final : public api::IBolt {
 public:
  void Prepare(const Config& config, api::TopologyContext* context,
               api::IBoltOutputCollector* collector) override {
    collector_ = collector;
  }

  void Execute(const api::Tuple& input) override {
    collector_->Emit(input, {api::Value(input.GetString(0))});
    collector_->Ack(input);
    ++forwarded_;
  }

  uint64_t forwarded() const { return forwarded_; }

 private:
  api::IBoltOutputCollector* collector_ = nullptr;
  uint64_t forwarded_ = 0;
};

/// \brief Assembles the WordCount topology at the given parallelism:
/// `spouts` WordSpout instances, fields-grouped ("hash partitioning") into
/// `bolts` CountBolt instances.
Result<std::shared_ptr<const api::Topology>> BuildWordCountTopology(
    const std::string& name, int spouts, int bolts,
    const WordSpout::Options& spout_options = {},
    const Config& topology_config = Config());

/// \brief WordCount with a relay pipeline in the middle: `spouts` WordSpout
/// instances, shuffle-grouped through `relay_stages` RelayBolt stages (each
/// at `relay_parallelism`), fields-grouped into `bolts` CountBolt sinks.
/// `relay_stages = 0` degenerates to plain WordCount.
Result<std::shared_ptr<const api::Topology>> BuildWordChainTopology(
    const std::string& name, int spouts, int relay_stages,
    int relay_parallelism, int bolts,
    const WordSpout::Options& spout_options = {},
    const Config& topology_config = Config());

}  // namespace workloads
}  // namespace heron

#endif  // HERON_WORKLOADS_WORD_COUNT_H_
