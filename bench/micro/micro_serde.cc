// Microbenchmarks of the real serialization components — the §V-A
// optimization deltas measured directly on the code the engine runs, and
// the source of the simulator's cost-table calibration (EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include "proto/messages.h"
#include "serde/message_pool.h"

namespace heron {
namespace {

proto::TupleDataMsg MakeWordTuple() {
  proto::TupleDataMsg msg;
  msg.tuple_key = 0x123456789abcdefULL;
  msg.roots.push_back(proto::MakeRootKey(3, 0x42));
  msg.emit_time_nanos = 1234567890;
  msg.values.emplace_back(std::string("benchmarkword"));
  return msg;
}

serde::Buffer MakeBatchBytes(int tuples) {
  proto::TupleBatchMsg batch;
  batch.src_task = 7;
  batch.dest_task = 12;
  batch.stream = kDefaultStreamId;
  batch.src_component = "word";
  const serde::Buffer tuple = MakeWordTuple().SerializeAsBuffer();
  for (int i = 0; i < tuples; ++i) batch.tuples.push_back(tuple);
  return batch.SerializeAsBuffer();
}

/// A bulk tuple as the live benchmark ships it: (key, 1 KiB payload, emit
/// time), untracked.
proto::TupleDataMsg MakePayloadTuple() {
  proto::TupleDataMsg msg;
  msg.tuple_key = 0x123456789abcdefULL;
  msg.emit_time_nanos = 1234567890;
  msg.values.emplace_back(int64_t{42});
  msg.values.emplace_back(std::string(1024, 'p'));
  msg.values.emplace_back(int64_t{1234567890});
  return msg;
}

/// Instance-side serialize, buffer reused (the engine's steady state).
/// Arg 0 = word tuple, 1 = 1 KiB tuple.
void BM_SerializeTuple(benchmark::State& state) {
  const proto::TupleDataMsg msg =
      state.range(0) == 0 ? MakeWordTuple() : MakePayloadTuple();
  serde::Buffer buffer;
  for (auto _ : state) {
    buffer.clear();
    serde::WireEncoder enc(&buffer);
    msg.SerializeTo(&enc);
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SerializeTuple)->ArgName("payload_1k")->Arg(0)->Arg(1);

/// What the outbox pays per emitted tuple: the tuple appended as a
/// length-delimited field of a 64-tuple batch buffer, reused across
/// batches. Arg 0 = word tuples, 1 = 1 KiB tuples; per_tuple is the time
/// per tuple.
void BM_AppendTupleField(benchmark::State& state) {
  constexpr int kTuples = 64;
  const proto::TupleDataMsg msg =
      state.range(0) == 0 ? MakeWordTuple() : MakePayloadTuple();
  serde::Buffer buffer;
  for (auto _ : state) {
    buffer.clear();
    serde::WireEncoder enc(&buffer);
    for (int i = 0; i < kTuples; ++i) {
      msg.AppendAsField(proto::tuple_batch_fields::kTuple, &enc);
    }
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTuples);
  state.counters["per_tuple"] = benchmark::Counter(
      kTuples, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_AppendTupleField)->ArgName("payload_1k")->Arg(0)->Arg(1);

/// Instance-side full deserialize.
void BM_DeserializeTuple(benchmark::State& state) {
  const serde::Buffer bytes = MakeWordTuple().SerializeAsBuffer();
  proto::TupleDataMsg msg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.ParseFromBytes(bytes).ok());
  }
}
BENCHMARK(BM_DeserializeTuple);

/// What a bolt pays per received tuple: view parse of a routed 64-tuple
/// batch plus the in-place decode of every tuple into one reused tuple.
/// Arg 0 = word tuples, 1 = 1 KiB tuples; per_tuple is the time per tuple.
void BM_ReceiveBatch(benchmark::State& state) {
  constexpr int kTuples = 64;
  const proto::TupleDataMsg msg =
      state.range(0) == 0 ? MakeWordTuple() : MakePayloadTuple();
  proto::TupleBatchMsg routed;
  routed.src_task = 7;
  routed.dest_task = 12;
  routed.src_component = "word";
  for (int i = 0; i < kTuples; ++i) {
    routed.tuples.push_back(msg.SerializeAsBuffer());
  }
  const serde::Buffer bytes = routed.SerializeAsBuffer();
  proto::TupleBatchView view;
  api::Tuple tuple;
  for (auto _ : state) {
    if (!proto::ParseTupleBatchView(bytes, &view).ok()) {
      state.SkipWithError("malformed batch");
      break;
    }
    tuple.set_source(view.src_component, view.stream, view.src_task);
    for (const serde::BytesView t : view.tuples) {
      uint64_t trace_id = 0;
      benchmark::DoNotOptimize(proto::DecodeTupleInto(t, &tuple, &trace_id).ok());
      benchmark::DoNotOptimize(tuple.values().data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kTuples);
  state.counters["per_tuple"] = benchmark::Counter(
      kTuples, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_ReceiveBatch)->ArgName("payload_1k")->Arg(0)->Arg(1);

/// §V-A optimization 2, transit hop: lazy destination peek ...
void BM_PeekDestTask(benchmark::State& state) {
  const serde::Buffer bytes = MakeBatchBytes(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::PeekDestTask(bytes).ValueOr(-1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PeekDestTask)->Arg(16)->Arg(64)->Arg(256);

/// ... versus the ablated eager hop: full batch parse + rebuild.
void BM_EagerParseAndRebuildBatch(benchmark::State& state) {
  const serde::Buffer bytes = MakeBatchBytes(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    proto::TupleBatchMsg batch;
    benchmark::DoNotOptimize(batch.ParseFromBytes(bytes).ok());
    proto::TupleBatchMsg rebuilt;
    rebuilt.src_task = batch.src_task;
    rebuilt.dest_task = batch.dest_task;
    rebuilt.stream = batch.stream;
    rebuilt.src_component = batch.src_component;
    for (const auto& t : batch.tuples) {
      proto::TupleDataMsg msg;
      if (!msg.ParseFromBytes(t).ok()) continue;
      rebuilt.tuples.push_back(msg.SerializeAsBuffer());
    }
    benchmark::DoNotOptimize(rebuilt.SerializeAsBuffer().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EagerParseAndRebuildBatch)->Arg(16)->Arg(64)->Arg(256);

/// Routing: lazy fields-grouping hash over serialized bytes ...
void BM_PeekFieldsHash(benchmark::State& state) {
  const serde::Buffer bytes = MakeWordTuple().SerializeAsBuffer();
  const std::vector<int> indices = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::PeekFieldsHash(bytes, indices).ValueOr(0));
  }
}
BENCHMARK(BM_PeekFieldsHash);

/// ... versus decode-then-hash (what a naive router does).
void BM_DecodeThenHash(benchmark::State& state) {
  const serde::Buffer bytes = MakeWordTuple().SerializeAsBuffer();
  for (auto _ : state) {
    proto::TupleDataMsg msg;
    benchmark::DoNotOptimize(msg.ParseFromBytes(bytes).ok());
    benchmark::DoNotOptimize(api::HashValue(msg.values[0]));
  }
}
BENCHMARK(BM_DecodeThenHash);

/// §V-A optimization 1: pooled message reuse ...
void BM_PooledMessageAcquireRelease(benchmark::State& state) {
  serde::MessagePool<proto::TupleDataMsg> pool(/*enabled=*/true);
  // Warm the pool.
  pool.Release(pool.Acquire());
  for (auto _ : state) {
    proto::TupleDataMsg* msg = pool.Acquire();
    msg->tuple_key = 1;
    benchmark::DoNotOptimize(msg);
    pool.Release(msg);
  }
}
BENCHMARK(BM_PooledMessageAcquireRelease);

/// ... versus "the expensive new/delete operations".
void BM_HeapMessageNewDelete(benchmark::State& state) {
  serde::MessagePool<proto::TupleDataMsg> pool(/*enabled=*/false);
  for (auto _ : state) {
    proto::TupleDataMsg* msg = pool.Acquire();
    msg->tuple_key = 1;
    benchmark::DoNotOptimize(msg);
    pool.Release(msg);
  }
}
BENCHMARK(BM_HeapMessageNewDelete);

/// Pooled transport buffers vs fresh allocations per batch.
void BM_PooledBuffer(benchmark::State& state) {
  serde::BufferPool pool(/*enabled=*/true);
  pool.Release(pool.Acquire());
  for (auto _ : state) {
    serde::Buffer buffer = pool.Acquire();
    buffer.append(256, 'x');
    benchmark::DoNotOptimize(buffer.data());
    pool.Release(std::move(buffer));
  }
}
BENCHMARK(BM_PooledBuffer);

void BM_FreshBuffer(benchmark::State& state) {
  serde::BufferPool pool(/*enabled=*/false);
  for (auto _ : state) {
    serde::Buffer buffer = pool.Acquire();
    buffer.append(256, 'x');
    benchmark::DoNotOptimize(buffer.data());
    pool.Release(std::move(buffer));
  }
}
BENCHMARK(BM_FreshBuffer);

}  // namespace
}  // namespace heron

BENCHMARK_MAIN();
