// Microbenchmarks of the IPC kernel: per-envelope channel costs that feed
// the simulator's batch_send/batch_recv constants.

#include <benchmark/benchmark.h>

#include <thread>

#include "ipc/channel.h"
#include "proto/messages.h"

namespace heron {
namespace {

/// Uncontended enqueue + dequeue of a transport envelope.
void BM_ChannelSendRecv(benchmark::State& state) {
  ipc::Channel<proto::Envelope> channel(1024);
  for (auto _ : state) {
    proto::Envelope env(proto::MessageType::kTupleBatchRouted,
                        serde::Buffer(128, 'x'));
    benchmark::DoNotOptimize(channel.TrySend(std::move(env)).ok());
    auto out = channel.TryRecv();
    benchmark::DoNotOptimize(out.has_value());
  }
}
BENCHMARK(BM_ChannelSendRecv);

/// Two-thread producer/consumer handoff (the instance ↔ SMGR edge), in
/// the reactor discipline: the producer retries a refused TrySend, and the
/// consumer drains until empty, then parks on its bound Wakeup.
void BM_ChannelCrossThread(benchmark::State& state) {
  ipc::Channel<proto::Envelope> channel(4096);
  ipc::Wakeup wakeup;
  channel.BindWakeup(&wakeup);
  std::thread consumer([&channel, &wakeup] {
    ipc::RecvState recv = ipc::RecvState::kEmpty;
    while (recv != ipc::RecvState::kClosed) {
      while (channel.TryRecv(&recv).has_value()) {
      }
      if (recv == ipc::RecvState::kEmpty) wakeup.WaitFor(1000000);  // 1 ms.
    }
  });
  for (auto _ : state) {
    proto::Envelope env(proto::MessageType::kTupleBatchRouted,
                        serde::Buffer(128, 'x'));
    bool sent = channel.TrySend(std::move(env)).ok();
    while (!sent) {
      std::this_thread::yield();
      sent = channel.TrySend(std::move(env)).ok();
    }
    benchmark::DoNotOptimize(sent);
  }
  channel.Close();
  consumer.join();
}
BENCHMARK(BM_ChannelCrossThread);

/// Back-pressure path: TrySend against a full channel (the SMGR's parked
/// retry case) must be cheap and must not lose the envelope.
void BM_ChannelTrySendFull(benchmark::State& state) {
  ipc::Channel<proto::Envelope> channel(1);
  HERON_CHECK_OK(channel.TrySend(
      proto::Envelope(proto::MessageType::kControl, serde::Buffer())));
  proto::Envelope env(proto::MessageType::kControl, serde::Buffer(64, 'y'));
  for (auto _ : state) {
    const Status st = channel.TrySend(std::move(env));
    benchmark::DoNotOptimize(st.IsResourceExhausted());
  }
}
BENCHMARK(BM_ChannelTrySendFull);

}  // namespace
}  // namespace heron

BENCHMARK_MAIN();
