// Microbenchmarks of the §II reactor kernel: the price of one clock read,
// per-iteration stepping cost, the cost of an idle cooperative drive,
// cross-thread wakeup latency through a parked loop, and timer-fire
// jitter. These bound the fixed overhead every module loop (SMGR,
// instance) pays on top of its actual envelope work.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "ipc/channel.h"
#include "metrics/metrics.h"
#include "proto/messages.h"
#include "runtime/event_loop.h"
#include "runtime/tasklet.h"

namespace heron {
namespace {

runtime::EventLoop::Options BenchOptions(const char* name) {
  runtime::EventLoop::Options options;
  options.name = name;
  return options;
}

/// One RealClock::NowNanos() (steady_clock): the unit the engine's clock
/// budget is counted in — a cooperative step reads it once, a spout round
/// once, an acking SMGR batch once.
void BM_ClockRead(benchmark::State& state) {
  const Clock* clock = RealClock::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock->NowNanos());
  }
}
BENCHMARK(BM_ClockRead);

/// Cost of one empty RunOnce() iteration: timer-heap peek, source scan,
/// service sweep. This is the floor a step-mode test pays per step.
void BM_RunOnceEmpty(benchmark::State& state) {
  SimClock clock(0);
  runtime::EventLoop loop(BenchOptions("bench-empty"), &clock);
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.RunOnce());
  }
}
BENCHMARK(BM_RunOnceEmpty);

/// One envelope through a registered channel source per iteration: the
/// steady-state per-tuple-batch reactor overhead (handler dispatch, burst
/// bookkeeping) with the handler itself a no-op.
void BM_RunOnceOneEnvelope(benchmark::State& state) {
  SimClock clock(0);
  runtime::EventLoop loop(BenchOptions("bench-envelope"), &clock);
  ipc::Channel<proto::Envelope> channel(1024);
  uint64_t handled = 0;
  loop.AddChannel<proto::Envelope>(
      &channel, [&handled](proto::Envelope&&) { ++handled; });
  for (auto _ : state) {
    proto::Envelope env(proto::MessageType::kTupleBatchRouted,
                        serde::Buffer(128, 'x'));
    benchmark::DoNotOptimize(channel.TrySend(std::move(env)).ok());
    loop.RunOnce();
  }
  benchmark::DoNotOptimize(handled);
  channel.Close();
  loop.RunOnce();  // Observe closed-and-drained before teardown.
  loop.Shutdown();
}
BENCHMARK(BM_RunOnceOneEnvelope);

/// One inline TaskletPool pass over N idle tasklets on the real clock, each
/// loop built like a sink instance's: its own metrics registry (so loop
/// busy accounting runs) and one inbound channel, with no traffic. This is
/// the fixed price of one drive that finds nothing to do, which the slice
/// step cap trades against per-pass payload; `ns_per_drive` divides the
/// pass by N. BM_RunOnceEmpty has neither registry nor clock and reads far
/// lower. An idle drive reads the clock twice: the slice start and the
/// one step's end.
void BM_IdleTaskletPass(benchmark::State& state) {
  const int loops = static_cast<int>(state.range(0));
  const Clock* clock = RealClock::Get();
  runtime::TaskletPool::Options pool_options;
  pool_options.workers = 1;
  pool_options.threaded = false;
  runtime::TaskletPool pool(pool_options, clock);
  std::vector<std::unique_ptr<metrics::MetricsRegistry>> registries;
  std::vector<std::unique_ptr<ipc::Channel<proto::Envelope>>> channels;
  std::vector<std::unique_ptr<runtime::EventLoop>> members;
  for (int i = 0; i < loops; ++i) {
    registries.push_back(std::make_unique<metrics::MetricsRegistry>());
    channels.push_back(std::make_unique<ipc::Channel<proto::Envelope>>(1024));
    runtime::EventLoop::Options options;
    options.name = "sink-" + std::to_string(i);
    options.burst = 256;
    options.registry = registries.back().get();
    options.metric_prefix = "instance";
    members.push_back(std::make_unique<runtime::EventLoop>(options, clock));
    members.back()->AddChannel<proto::Envelope>(channels.back().get(),
                                                [](proto::Envelope&&) {});
    pool.Add(members.back().get());
  }
  const int64_t start = clock->NowNanos();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.DriveAll());
  }
  const int64_t elapsed = clock->NowNanos() - start;
  state.counters["ns_per_drive"] = benchmark::Counter(
      static_cast<double>(elapsed) /
      static_cast<double>(state.iterations() * static_cast<uint64_t>(loops)));
  for (auto& channel : channels) channel->Close();
  pool.DriveAll();  // Observe closed-and-drained: shutdown hooks run.
}
BENCHMARK(BM_IdleTaskletPass)->Arg(9);

/// Timer arm + fire round-trip under SimClock: heap push, clock advance,
/// pop-and-dispatch. Measures the timer path that the SMGR cache-drain
/// cadence rides every drain interval.
void BM_TimerArmFire(benchmark::State& state) {
  SimClock clock(0);
  runtime::EventLoop loop(BenchOptions("bench-timer"), &clock);
  uint64_t fired = 0;
  for (auto _ : state) {
    loop.AddTimer(clock.NowNanos() + 1, [&fired] { ++fired; });
    clock.AdvanceNanos(2);
    loop.RunOnce();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_TimerArmFire);

/// Timer-fire jitter on the real clock: arm a one-shot 50us out, Run() the
/// loop on this thread until it fires, record observed - requested. The
/// counter reports mean lateness in nanoseconds (park wake + iteration).
void BM_TimerFireJitterReal(benchmark::State& state) {
  int64_t total_late = 0;
  int64_t rounds = 0;
  for (auto _ : state) {
    const Clock* clock = RealClock::Get();
    runtime::EventLoop loop(BenchOptions("bench-jitter"), clock);
    const int64_t deadline = clock->NowNanos() + 50000;  // 50 us out.
    int64_t observed = 0;
    runtime::EventLoop* loop_ptr = &loop;
    loop.AddTimer(deadline, [clock, loop_ptr, &observed] {
      observed = clock->NowNanos();
      loop_ptr->Stop();
    });
    loop.Run();
    total_late += observed - deadline;
    ++rounds;
  }
  state.counters["late_ns_mean"] =
      benchmark::Counter(static_cast<double>(total_late) /
                         static_cast<double>(rounds > 0 ? rounds : 1));
}
BENCHMARK(BM_TimerFireJitterReal)->Unit(benchmark::kMicrosecond);

/// Cross-thread wakeup latency: a loop thread parks on its coalescing
/// Wakeup; the bench thread sends one envelope and spins until the handler
/// echoes it. Round-trip = notify + park wake + burst drain + atomic echo,
/// i.e. the instance→SMGR handoff latency when the SMGR is idle.
void BM_WakeupPingPong(benchmark::State& state) {
  const Clock* clock = RealClock::Get();
  runtime::EventLoop loop(BenchOptions("bench-pingpong"), clock);
  ipc::Channel<uint64_t> channel(64);
  std::atomic<uint64_t> echoed{0};
  loop.AddChannel<uint64_t>(&channel, [&echoed](uint64_t&& v) {
    echoed.store(v, std::memory_order_release);
  });
  loop.Start();
  uint64_t seq = 0;
  for (auto _ : state) {
    ++seq;
    benchmark::DoNotOptimize(channel.TrySend(uint64_t(seq)).ok());
    while (echoed.load(std::memory_order_acquire) != seq) {
    }
  }
  channel.Close();  // Shutdown-drain: loop exits once drained.
  loop.Join();
}
BENCHMARK(BM_WakeupPingPong)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace heron

BENCHMARK_MAIN();
