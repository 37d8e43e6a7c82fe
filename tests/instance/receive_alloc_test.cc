// Allocation count of the bolt receive path. This binary replaces the
// global operator new with a counting one, so it stays apart from the
// other instance tests.
//
// A bolt instance parses each routed batch into views and decodes every
// tuple in place into one reused api::Tuple. Once that tuple has held a
// tuple of the same shape, receiving, decoding and executing a batch must
// perform zero heap allocations — for WordCount word tuples and for 1 KiB
// payload tuples alike.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "api/topology.h"
#include "api/tuple.h"
#include "instance/instance.h"
#include "packing/round_robin_packing.h"
#include "proto/messages.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace heron {
namespace proto {
namespace {

constexpr int kBatchTuples = 64;

/// A WordCount tuple: tracked, one root, one word. Word lengths run from
/// 1 to 23 bytes, past the short-string buffer, so a slot's capacity must
/// be reused, not just its inline bytes.
TupleDataMsg WordTuple(uint64_t i) {
  TupleDataMsg msg;
  msg.tuple_key = MakeRootKey(3, 0x1000 + i);
  msg.roots.push_back(msg.tuple_key);
  msg.emit_time_nanos = static_cast<int64_t>(1000 + i);
  msg.values.emplace_back(std::string(1 + i % 23, 'w'));
  return msg;
}

/// A bulk tuple: untracked (key, 1 KiB payload, emit time).
TupleDataMsg PayloadTuple(uint64_t i) {
  TupleDataMsg msg;
  msg.tuple_key = 0x2000 + i;
  msg.emit_time_nanos = static_cast<int64_t>(2000 + i);
  msg.values.emplace_back(static_cast<int64_t>(i));
  msg.values.emplace_back(std::string(1024, static_cast<char>('a' + i % 26)));
  msg.values.emplace_back(static_cast<int64_t>(2000 + i));
  return msg;
}

serde::Buffer RoutedBatch(TupleDataMsg (*make)(uint64_t), uint64_t first) {
  TupleBatchMsg batch;
  batch.src_task = 3;
  batch.dest_task = 9;
  batch.src_component = "word";
  for (uint64_t i = first; i < first + kBatchTuples; ++i) {
    batch.tuples.push_back(make(i).SerializeAsBuffer());
  }
  return batch.SerializeAsBuffer();
}

/// Allocations of the copying decode a bolt ran before the in-place one:
/// each tuple copied out of the batch, decoded into a message with new
/// strings, then copied into a tuple. The counter's positive control.
uint64_t CopyingDecodeAllocations(const serde::Buffer& payload) {
  const uint64_t before = g_allocations.load();
  TupleBatchMsg batch;
  EXPECT_TRUE(batch.ParseFromBytes(payload).ok());
  api::Tuple tuple;
  TupleDataMsg msg;
  for (const serde::Buffer& bytes : batch.tuples) {
    EXPECT_TRUE(msg.ParseFromBytes(bytes).ok());
    msg.ToTuple(batch.src_component, batch.stream, batch.src_task, &tuple);
  }
  return g_allocations.load() - before;
}

/// Reads each input and does nothing else.
class SinkBolt final : public api::IBolt {
 public:
  explicit SinkBolt(uint64_t* checksum) : checksum_(checksum) {}
  void Prepare(const Config&, api::TopologyContext*,
               api::IBoltOutputCollector*) override {}
  void Execute(const api::Tuple& input) override {
    *checksum_ += input.tuple_key() + input.size();
  }

 private:
  uint64_t* checksum_;
};

/// A sink bolt instance in step mode, fed routed batches by hand.
class ReceiveAllocInstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    api::TopologyBuilder builder("receive-alloc");
    builder
        .SetSpout(
            "word", [] { return std::unique_ptr<api::ISpout>(); }, 1)
        .OutputFields({"key", "payload", "emit_ns"});
    builder
        .SetBolt(
            "sink", [this] { return std::make_unique<SinkBolt>(&checksum_); },
            1)
        .ShuffleGrouping("word");
    auto topology = builder.Build();
    ASSERT_TRUE(topology.ok());
    packing::RoundRobinPacking packer;
    Config config;
    config.SetInt(config_keys::kNumContainersHint, 1);
    ASSERT_TRUE(packer.Initialize(config, *topology).ok());
    auto plan = packer.Pack();
    ASSERT_TRUE(plan.ok());
    instance::HeronInstance::Options options;
    options.task = 1;  // The sink.
    bolt_ = std::make_unique<instance::HeronInstance>(
        options, *PhysicalPlan::Build(*topology, *plan), &transport_,
        RealClock::Get(), nullptr);
    ASSERT_TRUE(bolt_->StartStepMode().ok());
  }

  void TearDown() override {
    if (bolt_ != nullptr) bolt_->Stop();
  }

  /// Delivers one routed batch and returns the heap allocations of the
  /// loop iteration that receives, decodes and executes it. The payload
  /// comes from the transport's pool, as fabric deliveries do, so the
  /// pool's freelist keeps a steady size.
  uint64_t ReceiveAllocations(const serde::Buffer& bytes) {
    serde::Buffer payload = transport_.buffer_pool()->Acquire();
    payload.assign(bytes);
    EXPECT_TRUE(bolt_->inbound()
                    ->TrySend(Envelope(MessageType::kTupleBatchRouted,
                                       std::move(payload)))
                    .ok());
    const uint64_t before = g_allocations.load();
    bolt_->loop()->RunOnce();
    return g_allocations.load() - before;
  }

  uint64_t executed() {
    return bolt_->metrics()->GetCounter("instance.executed")->value();
  }

  /// Warms the instance on four batches of `make` tuples, then expects the
  /// fifth to be received, decoded and executed with no allocation.
  void ExpectWarmBatchAllocatesNothing(TupleDataMsg (*make)(uint64_t),
                                       const char* label) {
    for (uint64_t first = 0; first < 4 * kBatchTuples;
         first += kBatchTuples) {
      ReceiveAllocations(RoutedBatch(make, first));
    }
    ASSERT_EQ(executed(), 4u * kBatchTuples);
    const serde::Buffer measured = RoutedBatch(make, 4 * kBatchTuples);
    const uint64_t in_place = ReceiveAllocations(measured);
    EXPECT_EQ(in_place, 0u) << label;
    EXPECT_EQ(executed(), 5u * kBatchTuples);
    EXPECT_NE(checksum_, 0u);
    const uint64_t by_copy = CopyingDecodeAllocations(measured);
    EXPECT_GE(by_copy, static_cast<uint64_t>(kBatchTuples)) << label;
    std::printf("%s: %.2f allocations/tuple in place, %.2f copying\n", label,
                static_cast<double>(in_place) / kBatchTuples,
                static_cast<double>(by_copy) / kBatchTuples);
  }

  uint64_t checksum_ = 0;
  smgr::Transport transport_;
  std::unique_ptr<instance::HeronInstance> bolt_;
};

TEST_F(ReceiveAllocInstanceTest, WarmWordBatchAllocatesNothing) {
  ExpectWarmBatchAllocatesNothing(&WordTuple, "word tuples");
}

TEST_F(ReceiveAllocInstanceTest, WarmPayloadBatchAllocatesNothing) {
  ExpectWarmBatchAllocatesNothing(&PayloadTuple, "1 KiB tuples");
}

TEST_F(ReceiveAllocInstanceTest, OversizedTupleIsNotKeptAfterItsBatch) {
  for (uint64_t first = 0; first < 2 * kBatchTuples; first += kBatchTuples) {
    ReceiveAllocations(RoutedBatch(&PayloadTuple, first));
  }
  // One tuple past the pool's per-buffer bound (4 MiB)...
  TupleDataMsg big = PayloadTuple(0);
  big.values[1] = std::string(5u << 20, 'x');
  TupleBatchMsg batch;
  batch.src_task = 3;
  batch.dest_task = 9;
  batch.src_component = "word";
  batch.tuples.push_back(big.SerializeAsBuffer());
  ReceiveAllocations(batch.SerializeAsBuffer());
  ASSERT_EQ(executed(), 2u * kBatchTuples + 1);
  // ...is released after its batch, so the next batch regrows the
  // scratch (kept, the 5 MiB string would absorb the 1 KiB payloads with
  // no allocation), and the one after is warm again.
  EXPECT_GT(ReceiveAllocations(RoutedBatch(&PayloadTuple, 2 * kBatchTuples)),
            0u);
  EXPECT_EQ(ReceiveAllocations(RoutedBatch(&PayloadTuple, 3 * kBatchTuples)),
            0u);
  EXPECT_EQ(executed(), 4u * kBatchTuples + 1);
}

}  // namespace
}  // namespace proto
}  // namespace heron
