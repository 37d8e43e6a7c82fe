#include "ipc/fabric.h"

#include <chrono>

#include "common/strings.h"

namespace heron {
namespace ipc {

// -- Pump thread (shared by the wire fabrics) -----------------------------

void Fabric::StartPump() {
  if (pumping_.exchange(true)) return;
  pump_thread_ = std::thread([this] {
    const auto interval = std::chrono::microseconds(kPumpIntervalMicros);
    while (pumping_.load(std::memory_order_acquire)) {
      Pump();
      // Sleep-driven cadence rather than fd readiness: the pump drains
      // every readable frame per pass, so the interval bounds latency,
      // not throughput, and it works identically for fd-less fabrics.
      std::this_thread::sleep_for(interval);
    }
    // Final drain so frames sent just before StopPump still deliver.
    Pump();
  });
}

void Fabric::StopPump() {
  if (!pumping_.exchange(false)) return;
  if (pump_thread_.joinable()) pump_thread_.join();
}

// -- InProcessFabric ------------------------------------------------------

Status InProcessFabric::OpenLink(uint64_t key, FrameSink sink) {
  if (sink == nullptr) return Status::InvalidArgument("null frame sink");
  std::lock_guard<std::mutex> lock(mutex_);
  if (!links_.emplace(key, std::move(sink)).second) {
    return Status::AlreadyExists(
        StrFormat("fabric link %llu already open",
                  static_cast<unsigned long long>(key)));
  }
  return Status::OK();
}

Status InProcessFabric::CloseLink(uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (links_.erase(key) == 0) {
    return Status::NotFound("fabric link not open");
  }
  return Status::OK();
}

Status InProcessFabric::SendFrame(uint64_t key,
                                  const serde::FrameHeader& header,
                                  serde::Buffer* payload) {
  // Delivery is the send: the sink runs synchronously under the fabric
  // lock (exactly the channel push the pre-fabric transport performed
  // under its registry lock). The payload moves pointer-wise — the header
  // is never serialized and the bytes are never copied.
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = links_.find(key);
  if (it == links_.end()) return Status::NotFound("fabric link not open");
  const Status st = it->second(header, std::move(*payload));
  if (st.ok()) {
    ++stats_.frames_sent;
    ++stats_.frames_delivered;
  } else if (st.IsResourceExhausted()) {
    ++stats_.sink_stalls;
  }
  return st;
}

FabricStats InProcessFabric::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// -- Factory --------------------------------------------------------------

Result<std::unique_ptr<Fabric>> MakeFabric(const std::string& mode,
                                           const Fabric::Options& options) {
  std::unique_ptr<Fabric> fabric;
  if (mode == "in-process" || mode == "inprocess" || mode.empty()) {
    fabric = std::make_unique<InProcessFabric>(options);
  } else if (mode == "socket") {
    fabric = std::make_unique<SocketFabric>(options);
  } else if (mode == "shm") {
    fabric = std::make_unique<ShmRingFabric>(options);
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown transport mode '%s' "
                  "(want in-process, socket or shm)",
                  mode.c_str()));
  }
  return fabric;
}

}  // namespace ipc
}  // namespace heron
