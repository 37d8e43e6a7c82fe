#include "workloads/word_count.h"

#include <algorithm>
#include <chrono>

#include "api/context.h"
#include "common/strings.h"
#include "serde/wire.h"

namespace heron {
namespace workloads {

WordDictionary::WordDictionary(size_t size, uint64_t seed) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz";
  Random rng(seed);
  words_.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    const size_t length = 4 + rng.NextBelow(9);
    std::string word;
    word.reserve(length);
    for (size_t c = 0; c < length; ++c) {
      word.push_back(kAlphabet[rng.NextBelow(26)]);
    }
    words_.push_back(std::move(word));
  }
}

const WordDictionary& WordDictionary::Default() {
  static const WordDictionary dictionary;
  return dictionary;
}

namespace {
// WordSpout snapshot fields (replay cursor).
constexpr uint32_t kWsRngState = 1;
constexpr uint32_t kWsEmitted = 2;
constexpr uint32_t kWsNextMessageId = 3;
// CountBolt snapshot fields, repeated in sorted word order.
constexpr uint32_t kCbWord = 1;
constexpr uint32_t kCbCount = 2;
}  // namespace

void WordSpout::Open(const Config& config, api::TopologyContext* context,
                     api::ISpoutOutputCollector* collector) {
  collector_ = collector;
  acking_ = config.GetBoolOr(config_keys::kAckingEnabled, false);
  replay_dropped_counter_ = context->metrics()->GetCounter("replay.dropped");
  if (options_.dictionary_size == 450000) {
    dictionary_ = &WordDictionary::Default();
  } else {
    owned_dictionary_ =
        std::make_unique<WordDictionary>(options_.dictionary_size);
    dictionary_ = owned_dictionary_.get();
  }
  // Decorrelate instances of the spout without losing determinism.
  rng_ = Random(2017 + static_cast<uint64_t>(context->task_id()) * 7919);
}

void WordSpout::NextTuple() {
  // Replays first: a failed word goes out again — same id, same word —
  // before any new work, so recovery backlog drains ahead of fresh load.
  while (!replay_queue_.empty()) {
    const int64_t id = replay_queue_.front();
    replay_queue_.pop_front();
    if (replay_pending_.erase(id) == 0) continue;  // Drained by an ack.
    const auto it = inflight_.find(id);
    if (it == inflight_.end()) continue;
    collector_->Emit({api::Value(dictionary_->WordAt(it->second))}, id);
    ++replayed_;
  }
  for (int i = 0; i < options_.words_per_call; ++i) {
    if (options_.emit_limit != 0 && emitted_ >= options_.emit_limit) return;
    if (options_.target_rate_per_sec > 0) {
      // Token bucket against the wall clock. No sleeping — NextTuple just
      // declines, and the engine's idle policy decides when to ask again.
      // The bucket depth is capped at one call's worth of words: a spout
      // that fell behind (cold pipeline, stalled worker) must not bank
      // the deficit and then blast a catch-up burst at full speed — that
      // backlog would queue ahead of every later word and own the tail.
      const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count();
      if (rate_epoch_nanos_ < 0) rate_epoch_nanos_ = now;
      rate_tokens_ += static_cast<double>(now - rate_epoch_nanos_) / 1e9 *
                      options_.target_rate_per_sec;
      rate_epoch_nanos_ = now;
      rate_tokens_ =
          std::min(rate_tokens_, static_cast<double>(options_.words_per_call));
      if (rate_tokens_ < 1.0) return;
      rate_tokens_ -= 1.0;
    }
    const size_t index = rng_.NextBelow(dictionary_->size());
    const std::string& word = dictionary_->WordAt(index);
    if (acking_ && emitted_ >= options_.warmup_emits) {
      if (options_.replay_failed) {
        if (inflight_.size() < kReplayTrackLimit) {
          inflight_[next_message_id_] = index;
        } else {
          // Tracking is full (endless outage): this word cannot be
          // replayed if its tree fails. Emit it anyway — losing replay
          // coverage beats unbounded memory — and count the loss.
          ++replay_dropped_;
          replay_dropped_counter_->Increment();
        }
      }
      collector_->Emit({api::Value(word)}, next_message_id_++);
    } else {
      collector_->Emit({api::Value(word)}, std::nullopt);
    }
    ++emitted_;
  }
}

void WordSpout::SnapshotState(std::string* out) {
  serde::WireEncoder enc(out);
  enc.WriteUint64Field(kWsRngState, rng_.state());
  enc.WriteUint64Field(kWsEmitted, emitted_);
  enc.WriteInt64Field(kWsNextMessageId, next_message_id_);
}

void WordSpout::RestoreState(std::string_view state) {
  serde::WireDecoder dec(state);
  while (!dec.AtEnd()) {
    auto tag = dec.ReadTag();
    if (!tag.ok() || *tag == 0) break;
    switch (serde::TagFieldNumber(*tag)) {
      case kWsRngState: {
        auto v = dec.ReadUint64();
        if (v.ok()) rng_.set_state(*v);
        break;
      }
      case kWsEmitted: {
        auto v = dec.ReadUint64();
        if (v.ok()) emitted_ = *v;
        break;
      }
      case kWsNextMessageId: {
        auto v = dec.ReadInt64();
        if (v.ok()) next_message_id_ = *v;
        break;
      }
      default:
        if (!dec.SkipField(serde::TagWireType(*tag)).ok()) return;
    }
  }
  // The restore rewinds past any in-flight bookkeeping: those trees died
  // with the failed epoch and their words will be re-emitted fresh.
  inflight_.clear();
  replay_queue_.clear();
  replay_pending_.clear();
}

void CountBolt::BurnCpu() const {
  // Busy spin on the steady clock: the artificial work must consume the
  // instance thread like real user logic would — a sleep yields the core
  // and never builds the queue depth backpressure needs.
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(delay_us_);
  while (std::chrono::steady_clock::now() < until) {
  }
}

void CountBolt::SnapshotState(std::string* out) {
  // Sorted encoding: two bolts that counted the same multiset of words
  // produce identical bytes regardless of hash-map iteration order.
  std::vector<std::pair<std::string_view, uint64_t>> sorted;
  sorted.reserve(counts_.size());
  for (const auto& [word, count] : counts_) sorted.emplace_back(word, count);
  std::sort(sorted.begin(), sorted.end());
  serde::WireEncoder enc(out);
  for (const auto& [word, count] : sorted) {
    enc.WriteBytesField(kCbWord, word);
    enc.WriteUint64Field(kCbCount, count);
  }
}

void CountBolt::RestoreState(std::string_view state) {
  counts_.clear();
  executed_ = 0;
  serde::WireDecoder dec(state);
  std::string word;
  while (!dec.AtEnd()) {
    auto tag = dec.ReadTag();
    if (!tag.ok() || *tag == 0) break;
    switch (serde::TagFieldNumber(*tag)) {
      case kCbWord: {
        auto v = dec.ReadBytes();
        if (v.ok()) word = std::string(*v);
        break;
      }
      case kCbCount: {
        auto v = dec.ReadUint64();
        if (v.ok() && !word.empty()) {
          counts_[word] = *v;
          executed_ += *v;
        }
        break;
      }
      default:
        if (!dec.SkipField(serde::TagWireType(*tag)).ok()) return;
    }
  }
}

Result<std::shared_ptr<const api::Topology>> BuildWordCountTopology(
    const std::string& name, int spouts, int bolts,
    const WordSpout::Options& spout_options, const Config& topology_config) {
  api::TopologyBuilder builder(name);
  *builder.mutable_config() = topology_config;
  builder
      .SetSpout(
          "word",
          [spout_options] { return std::make_unique<WordSpout>(spout_options); },
          spouts)
      .OutputFields({"word"});
  builder
      .SetBolt(
          "count", [] { return std::make_unique<CountBolt>(); }, bolts)
      .FieldsGrouping("word", {"word"});
  return builder.Build();
}

Result<std::shared_ptr<const api::Topology>> BuildWordChainTopology(
    const std::string& name, int spouts, int relay_stages,
    int relay_parallelism, int bolts, const WordSpout::Options& spout_options,
    const Config& topology_config) {
  api::TopologyBuilder builder(name);
  *builder.mutable_config() = topology_config;
  builder
      .SetSpout(
          "word",
          [spout_options] { return std::make_unique<WordSpout>(spout_options); },
          spouts)
      .OutputFields({"word"});
  std::string upstream = "word";
  for (int stage = 0; stage < relay_stages; ++stage) {
    const std::string id = "relay" + std::to_string(stage);
    builder
        .SetBolt(
            id, [] { return std::make_unique<RelayBolt>(); },
            relay_parallelism)
        .OutputFields({"word"})
        .ShuffleGrouping(upstream);
    upstream = id;
  }
  builder
      .SetBolt(
          "count", [] { return std::make_unique<CountBolt>(); }, bolts)
      .FieldsGrouping(upstream, {"word"});
  return builder.Build();
}

}  // namespace workloads
}  // namespace heron
