#include "topologies.h"

#include <algorithm>
#include <optional>

#include "api/bolt.h"
#include "api/spout.h"

namespace perfbench {

using heron::Config;
using heron::api::IBolt;
using heron::api::IBoltOutputCollector;
using heron::api::ISpout;
using heron::api::ISpoutOutputCollector;
using heron::api::TopologyBuilder;
using heron::api::TopologyContext;
using heron::api::Tuple;
using heron::api::Value;
using heron::api::Values;

SpoutState* Ledger::AddSpout() {
  std::lock_guard<std::mutex> lock(mutex_);
  spouts_.push_back(std::make_unique<SpoutState>(slices_));
  spouts_.back()->stream = spouts_.size() - 1;
  return spouts_.back().get();
}

BoltState* Ledger::AddBolt(const std::string& component) {
  std::lock_guard<std::mutex> lock(mutex_);
  bolts_.emplace_back(component, std::make_unique<BoltState>(slices_));
  return bolts_.back().second.get();
}

std::vector<BoltState*> Ledger::Bolts(const std::string& component) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BoltState*> out;
  for (const auto& [name, state] : bolts_) {
    if (name == component) out.push_back(state.get());
  }
  return out;
}

std::vector<BoltState*> Ledger::AllBolts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BoltState*> out;
  for (const auto& entry : bolts_) out.push_back(entry.second.get());
  return out;
}

uint64_t Ledger::Emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& s : spouts_) n += s->emitted.load(std::memory_order_acquire);
  return n;
}

uint64_t Ledger::Acked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& s : spouts_) n += s->acked.load(std::memory_order_acquire);
  return n;
}

uint64_t Ledger::Failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& s : spouts_) n += s->failed.load(std::memory_order_acquire);
  return n;
}

uint64_t Ledger::Executed(const std::string& component) const {
  uint64_t n = 0;
  for (const BoltState* b : Bolts(component)) {
    n += b->executed.load(std::memory_order_acquire);
  }
  return n;
}

namespace {

// Single-writer counter bump with release publication (the main thread
// reads it with acquire to learn that the work before it is done).
void Bump(std::atomic<uint64_t>* counter, uint64_t by = 1) {
  counter->store(counter->load(std::memory_order_relaxed) + by,
                 std::memory_order_release);
}

/// Emits with or without timing the collector call.
void TimedEmit(const RunControl& control, SpoutState* state,
               ISpoutOutputCollector* collector, Values values,
               std::optional<int64_t> message_id) {
  if (!control.traced) {
    collector->Emit(std::move(values), message_id);
    return;
  }
  const int64_t t0 = NowNanos();
  collector->Emit(std::move(values), message_id);
  state->emit.Add(t0, NowNanos());
}

/// Spout-side ack bookkeeping shared by the acking spouts: the message id
/// is the latency origin relative to the run's base time.
void RecordAck(const LiveRun& run, SpoutState* state, int64_t message_id) {
  const int64_t origin = run.base_nanos + message_id;
  const int slice = run.control.SliceOf(origin);
  if (slice >= 0) {
    state->latency[static_cast<size_t>(slice)].Record(
        static_cast<uint64_t>(std::max<int64_t>(NowNanos() - origin, 0)));
  }
  Bump(&state->acked);
}

/// Closed-loop word spout: `per_call` words per NextTuple, each tracked
/// with its emit time as message id.
class ClosedWordSpout final : public ISpout {
 public:
  ClosedWordSpout(LiveRun* run, SpoutState* state,
                  const std::vector<uint32_t>* draws, int per_call)
      : run_(run), state_(state), draws_(draws), per_call_(per_call) {}

  void Open(const Config&, TopologyContext*,
            ISpoutOutputCollector* collector) override {
    collector_ = collector;
  }

  void NextTuple() override {
    if (run_->control.stop.load(std::memory_order_relaxed)) return;
    const std::vector<std::string>& dict = run_->inputs->dictionary;
    const int64_t id = NowNanos() - run_->base_nanos;
    for (int i = 0; i < per_call_; ++i) {
      const uint32_t word = (*draws_)[next_ % draws_->size()];
      ++next_;
      TimedEmit(run_->control, state_, collector_, {Value(dict[word])}, id);
    }
    Bump(&state_->emitted, static_cast<uint64_t>(per_call_));
  }

  void Ack(int64_t message_id) override {
    RecordAck(*run_, state_, message_id);
  }
  void Fail(int64_t) override { Bump(&state_->failed); }

 private:
  LiveRun* run_;
  SpoutState* state_;
  const std::vector<uint32_t>* draws_;
  int per_call_;
  ISpoutOutputCollector* collector_ = nullptr;
  uint64_t next_ = 0;
};

/// Bulk spout: (key, payload, emit time) tuples, untracked. Without
/// acking there is no max_spout_pending, so the spout itself caps the
/// tuples emitted but not yet executed at a sink.
class BulkSpout final : public ISpout {
 public:
  BulkSpout(LiveRun* run, SpoutState* state,
            const std::vector<uint32_t>* draws, int per_call,
            uint64_t max_in_flight)
      : run_(run),
        state_(state),
        draws_(draws),
        per_call_(per_call),
        max_in_flight_(max_in_flight) {}

  void Open(const Config&, TopologyContext*,
            ISpoutOutputCollector* collector) override {
    collector_ = collector;
  }

  void NextTuple() override {
    if (run_->control.stop.load(std::memory_order_relaxed)) return;
    if (next_ - run_->ledger.Executed(kSinkComponent) >= max_in_flight_) {
      return;
    }
    const std::vector<std::string>& payloads = run_->inputs->payloads;
    const int64_t now = NowNanos();
    for (int i = 0; i < per_call_; ++i) {
      const uint32_t key = (*draws_)[next_ % draws_->size()];
      ++next_;
      TimedEmit(run_->control, state_, collector_,
                {Value(static_cast<int64_t>(key)), Value(payloads[key]),
                 Value(now)},
                std::nullopt);
    }
    Bump(&state_->emitted, static_cast<uint64_t>(per_call_));
  }

 private:
  LiveRun* run_;
  SpoutState* state_;
  const std::vector<uint32_t>* draws_;
  int per_call_;
  uint64_t max_in_flight_;
  ISpoutOutputCollector* collector_ = nullptr;
  uint64_t next_ = 0;
};

/// Counts words and acks each input.
class CountBolt final : public IBolt {
 public:
  CountBolt(const RunControl* control, BoltState* state)
      : control_(control), state_(state) {}

  void Prepare(const Config&, TopologyContext*,
               IBoltOutputCollector* collector) override {
    collector_ = collector;
  }

  void Execute(const Tuple& input) override {
    if (!control_->traced) {
      ++state_->word_counts[input.GetString(0)];
      collector_->Ack(input);
      Bump(&state_->executed);
      return;
    }
    const int64_t t0 = NowNanos();
    ++state_->word_counts[input.GetString(0)];
    const int64_t t1 = NowNanos();
    collector_->Ack(input);
    const int64_t t2 = NowNanos();
    state_->execute.Add(t0, t1);
    state_->ack.Add(t1, t2);
    Bump(&state_->executed);
  }

 private:
  const RunControl* control_;
  BoltState* state_;
  IBoltOutputCollector* collector_ = nullptr;
};

/// Checks each payload against the generator's table, tallies keys and
/// records emit -> execute latency.
class PayloadSinkBolt final : public IBolt {
 public:
  PayloadSinkBolt(const LiveRun* run, BoltState* state)
      : run_(run), state_(state) {
    state_->key_counts.assign(run_->inputs->payloads.size(), 0);
  }

  void Prepare(const Config&, TopologyContext*,
               IBoltOutputCollector* collector) override {
    collector_ = collector;
  }

  void Execute(const Tuple& input) override {
    const int64_t t0 = NowNanos();
    const int64_t key = input.GetInt64(0);
    const int64_t emitted_at = input.GetInt64(2);
    const std::vector<std::string>& payloads = run_->inputs->payloads;
    if (key < 0 || static_cast<size_t>(key) >= payloads.size() ||
        input.GetString(1) != payloads[static_cast<size_t>(key)]) {
      ++state_->bad_payloads;
    } else {
      ++state_->key_counts[static_cast<size_t>(key)];
    }
    const int slice = run_->control.SliceOf(emitted_at);
    if (slice >= 0) {
      state_->latency[static_cast<size_t>(slice)].Record(
          static_cast<uint64_t>(std::max<int64_t>(t0 - emitted_at, 0)));
    }
    if (!run_->control.traced) {
      collector_->Ack(input);
      Bump(&state_->executed);
      return;
    }
    const int64_t t1 = NowNanos();
    collector_->Ack(input);
    state_->execute.Add(t0, t1);
    state_->ack.Add(t1, NowNanos());
    Bump(&state_->executed);
  }

 private:
  const LiveRun* run_;
  BoltState* state_;
  IBoltOutputCollector* collector_ = nullptr;
};

/// Spout factory that hands each new task the next draw stream.
template <typename Make>
heron::api::SpoutFactory SpoutFactoryOf(LiveRun* run, Make make) {
  return [run, make]() -> std::unique_ptr<ISpout> {
    SpoutState* state = run->ledger.AddSpout();
    return make(state, &run->inputs->draws.at(state->stream));
  };
}

}  // namespace

heron::Result<std::shared_ptr<const heron::api::Topology>> BuildWordCount(
    LiveRun* run, int spouts, int bolts, int per_call, const Config& config) {
  TopologyBuilder b("wordcount_acks");
  b.SetSpout("word",
             SpoutFactoryOf(run,
                            [run, per_call](SpoutState* s,
                                            const std::vector<uint32_t>* d) {
                              return std::make_unique<ClosedWordSpout>(
                                  run, s, d, per_call);
                            }),
             spouts)
      .OutputFields({"word"});
  b.SetBolt(kCountComponent,
            [run] {
              return std::make_unique<CountBolt>(
                  &run->control, run->ledger.AddBolt(kCountComponent));
            },
            bolts)
      .FieldsGrouping("word", {"word"});
  *b.mutable_config() = config;
  return b.Build();
}

heron::Result<std::shared_ptr<const heron::api::Topology>> BuildBulk(
    LiveRun* run, int sinks, int per_call, uint64_t max_in_flight,
    const Config& config) {
  TopologyBuilder b("bulk_noack");
  b.SetSpout("source",
             SpoutFactoryOf(run,
                            [run, per_call, max_in_flight](
                                SpoutState* s,
                                const std::vector<uint32_t>* d) {
                              return std::make_unique<BulkSpout>(
                                  run, s, d, per_call, max_in_flight);
                            }),
             1)
      .OutputFields({"key", "payload", "emit_ns"});
  b.SetBolt(kSinkComponent,
            [run] {
              return std::make_unique<PayloadSinkBolt>(
                  run, run->ledger.AddBolt(kSinkComponent));
            },
            sinks)
      .ShuffleGrouping("source");
  *b.mutable_config() = config;
  return b.Build();
}

}  // namespace perfbench
