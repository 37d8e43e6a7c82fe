#include "smgr/transport.h"

#include "common/strings.h"

namespace heron {
namespace smgr {

Transport::Transport() : buffer_pool_(/*max_idle=*/65536) {
  ipc::Fabric::Options fabric_options;
  fabric_options.pool = &buffer_pool_;
  fabric_ = std::make_unique<ipc::InProcessFabric>(fabric_options);
}

Transport::~Transport() {
  if (fabric_ != nullptr) fabric_->StopPump();
}

Result<Transport::Mode> Transport::ParseMode(std::string_view name) {
  if (name.empty() || name == "in-process" || name == "inprocess") {
    return Mode::kInProcess;
  }
  if (name == "socket") return Mode::kSocket;
  if (name == "shm") return Mode::kShmRing;
  return Status::InvalidArgument(
      StrFormat("unknown transport mode '%.*s' "
                "(want in-process, socket or shm)",
                static_cast<int>(name.size()), name.data()));
}

const char* Transport::ModeName(Mode mode) {
  switch (mode) {
    case Mode::kInProcess: return "in-process";
    case Mode::kSocket: return "socket";
    case Mode::kShmRing: return "shm";
  }
  return "in-process";
}

Status Transport::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!instances_.empty() || !smgrs_.empty()) {
    return Status::FailedPrecondition(
        "transport mode must be configured before endpoints register");
  }
  ipc::Fabric::Options fabric_options;
  fabric_options.pool = &buffer_pool_;
  HERON_ASSIGN_OR_RETURN(
      auto fabric, ipc::MakeFabric(ModeName(options.mode), fabric_options));
  if (fabric_ != nullptr) fabric_->StopPump();
  fabric_ = std::move(fabric);
  options_ = options;
  wire_mode_ = options.mode != Mode::kInProcess;
  // Threaded wire modes need the background pump; step mode pumps inline
  // after every send instead (deterministic single-threaded delivery).
  if (wire_mode_ && !options_.inline_pump) fabric_->StartPump();
  return Status::OK();
}

Status Transport::OpenLinkLocked(const Endpoint& dest,
                                 EnvelopeChannel* channel) {
  // The sink rebuilds the Envelope from the frame header alone — type,
  // destination task and trace id all ride the 20 header bytes, so the
  // payload is never inspected between serialization points.
  serde::BufferPool* pool = &buffer_pool_;
  return fabric_->OpenLink(
      LinkKey(dest),
      [channel, pool](const serde::FrameHeader& header,
                      serde::Buffer&& payload) {
        proto::Envelope env(static_cast<proto::MessageType>(header.type),
                            std::move(payload));
        env.trace_id = header.trace_id;
        if (header.dest_kind == 1 || header.dest_kind == 2) {
          env.dest_task = header.dest;
        }
        Status st = channel->TrySend(std::move(env));
        if (st.IsResourceExhausted()) {
          // Receiver full: the fabric retains the frame and retries, so
          // hand the payload back through the rvalue (sink contract).
          payload = std::move(env.payload);
        } else if (!st.ok()) {
          // Closed channel: the frame dies here; recycle its buffer.
          pool->Release(std::move(env.payload));
        }
        return st;
      });
}

Status Transport::RegisterInstance(TaskId task, EnvelopeChannel* channel) {
  if (channel == nullptr) {
    return Status::InvalidArgument("null instance channel");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (instances_.count(task) != 0) {
    return Status::AlreadyExists(
        StrFormat("task %d already registered", task));
  }
  HERON_RETURN_NOT_OK(OpenLinkLocked(InstanceEndpoint(task), channel));
  instances_.emplace(task, channel);
  return Status::OK();
}

Status Transport::UnregisterInstance(TaskId task) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (instances_.erase(task) == 0) {
    return Status::NotFound(StrFormat("task %d not registered", task));
  }
  fabric_->CloseLink(LinkKey(InstanceEndpoint(task))).ok();
  return Status::OK();
}

Status Transport::RegisterSmgr(ContainerId container,
                               EnvelopeChannel* channel) {
  if (channel == nullptr) {
    return Status::InvalidArgument("null smgr channel");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (smgrs_.count(container) != 0) {
    return Status::AlreadyExists(
        StrFormat("container %d smgr already registered", container));
  }
  HERON_RETURN_NOT_OK(OpenLinkLocked(SmgrEndpoint(container), channel));
  smgrs_.emplace(container, channel);
  return Status::OK();
}

Status Transport::UnregisterSmgr(ContainerId container) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (smgrs_.erase(container) == 0) {
    return Status::NotFound(
        StrFormat("container %d smgr not registered", container));
  }
  fabric_->CloseLink(LinkKey(SmgrEndpoint(container))).ok();
  return Status::OK();
}

Status Transport::TrySend(const Endpoint& dest, proto::Envelope* env) {
  // The whole send runs under the registry lock: once Unregister returns
  // on another thread, no sender can still be inside TrySend on the
  // removed channel, so the owner may destroy it. TrySend never blocks,
  // so the critical section is a bounded queue push (in-process) or a
  // nonblocking wire write.
  std::lock_guard<std::mutex> lock(mutex_);
  EnvelopeChannel* channel = nullptr;
  if (dest.kind == Endpoint::Kind::kInstance) {
    const auto it = instances_.find(dest.id);
    if (it != instances_.end()) channel = it->second;
  } else {
    const auto it = smgrs_.find(dest.id);
    if (it != smgrs_.end()) channel = it->second;
  }
  if (channel == nullptr) return Status::NotFound("endpoint not registered");
  if (wire_mode_) {
    // Window probe: wire delivery is asynchronous, so a full or closed
    // destination would surface only at the pump — after the sender
    // already counted the frame delivered. Refusing here mirrors the
    // in-process channel's synchronous kResourceExhausted/kCancelled
    // exactly, which is what keeps park/retry (and therefore the whole
    // backpressure protocol) byte-identical across transport modes.
    if (channel->closed()) {
      return Status::Cancelled("channel closed");
    }
    if (channel->size() >= channel->capacity()) {
      return Status::ResourceExhausted("destination window full");
    }
  }
  serde::FrameHeader header;
  header.type = static_cast<uint8_t>(env->type);
  header.trace_id = env->trace_id;
  header.payload_len = static_cast<uint32_t>(env->payload.size());
  if (env->type == proto::MessageType::kCheckpointBarrier) {
    // Barriers get their own frame kind: dest may legitimately be -1 (a
    // fan-out request), which dest_kind 1 could not express on the wire.
    header.dest_kind = 2;
    header.dest = env->dest_task;
  } else if (env->dest_task >= 0) {
    header.dest_kind = 1;
    header.dest = env->dest_task;
  }
  const uint64_t link_key = LinkKey(dest);
  HERON_RETURN_NOT_OK(fabric_->SendFrame(link_key, header, &env->payload));
  if (wire_mode_) {
    // The wire copied the payload; recycle the buffer so steady-state
    // wire transport allocates nothing.
    buffer_pool_.Release(std::move(env->payload));
    env->payload = serde::Buffer();
    if (options_.inline_pump) fabric_->PumpLink(link_key);
  }
  return Status::OK();
}

EnvelopeChannel* Transport::SmgrChannel(ContainerId container) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = smgrs_.find(container);
  return it == smgrs_.end() ? nullptr : it->second;
}

std::vector<ContainerId> Transport::RegisteredSmgrs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ContainerId> out;
  out.reserve(smgrs_.size());
  for (const auto& [container, _] : smgrs_) {
    out.push_back(container);
  }
  return out;
}

}  // namespace smgr
}  // namespace heron
