// Microbenchmarks of the Stream Manager TupleCache (§V-B): batched
// append + drain versus per-tuple batch construction (what an unbatched
// engine does for every tuple).

#include <benchmark/benchmark.h>

#include "proto/messages.h"
#include "smgr/tuple_cache.h"

namespace heron {
namespace {

serde::Buffer MakeTupleBytes() {
  proto::TupleDataMsg msg;
  msg.tuple_key = 99;
  msg.emit_time_nanos = 123;
  msg.values.emplace_back(std::string("cachedword"));
  return msg.SerializeAsBuffer();
}

/// The engine's path: tuples append to per-destination batches; one drain
/// hands off complete serialized batches.
void BM_CacheAddAndDrain(benchmark::State& state) {
  const int64_t batch = state.range(0);
  serde::BufferPool pool;
  smgr::TupleCache::Options options;
  options.drain_size_bytes = 64 << 20;  // Size cap out of the way.
  smgr::TupleCache cache(options, &pool);
  const serde::Buffer tuple = MakeTupleBytes();
  for (auto _ : state) {
    for (int64_t i = 0; i < batch; ++i) {
      cache.Add(/*dest=*/static_cast<TaskId>(i % 8), /*src_task=*/1,
                kDefaultStreamId, "word", tuple);
    }
    for (auto& drained : cache.DrainAll()) {
      benchmark::DoNotOptimize(drained.bytes.data());
      pool.Release(std::move(drained.bytes));
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CacheAddAndDrain)->Arg(64)->Arg(512)->Arg(4096);

/// The unbatched baseline: every tuple becomes its own fully-framed batch.
void BM_PerTupleBatches(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const serde::Buffer tuple = MakeTupleBytes();
  for (auto _ : state) {
    for (int64_t i = 0; i < batch; ++i) {
      proto::TupleBatchMsg msg;
      msg.src_task = 1;
      msg.dest_task = static_cast<TaskId>(i % 8);
      msg.src_component = "word";
      msg.tuples.push_back(tuple);
      benchmark::DoNotOptimize(msg.SerializeAsBuffer().size());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PerTupleBatches)->Arg(64)->Arg(512)->Arg(4096);

/// Drain-frequency sensitivity: cost per tuple of flushing the cache more
/// or less often (smaller adds-per-drain = more per-batch overhead).
void BM_CacheDrainGranularity(benchmark::State& state) {
  const int64_t adds_per_drain = state.range(0);
  serde::BufferPool pool;
  smgr::TupleCache::Options options;
  options.drain_size_bytes = 64 << 20;
  smgr::TupleCache cache(options, &pool);
  const serde::Buffer tuple = MakeTupleBytes();
  for (auto _ : state) {
    for (int64_t i = 0; i < adds_per_drain; ++i) {
      cache.Add(static_cast<TaskId>(i % 8), 1, kDefaultStreamId, "word",
                tuple);
    }
    for (auto& drained : cache.DrainAll()) {
      benchmark::DoNotOptimize(drained.bytes.size());
      pool.Release(std::move(drained.bytes));
    }
  }
  state.SetItemsProcessed(state.iterations() * adds_per_drain);
}
BENCHMARK(BM_CacheDrainGranularity)->Arg(8)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace heron

BENCHMARK_MAIN();
