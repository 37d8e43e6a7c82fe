#ifndef HERON_SMGR_TRANSPORT_H_
#define HERON_SMGR_TRANSPORT_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "ipc/channel.h"
#include "ipc/fabric.h"
#include "proto/messages.h"
#include "serde/message_pool.h"

namespace heron {
namespace smgr {

using EnvelopeChannel = ipc::Channel<proto::Envelope>;

/// \brief The topology's endpoint directory and its wire: which fabric
/// link reaches each Heron Instance and each container's Stream Manager.
///
/// Stands in for the host:port registry Heron keeps in the State Manager
/// plus the connected sockets. Components register at startup and
/// unregister on teardown (container restart re-registers fresh
/// channels); each registration opens a link on the pluggable
/// ipc::Fabric selected by `heron.transport.mode`:
///
///  - "in-process" — frames hand the payload buffer through by move,
///    synchronously (today's channel semantics, the step-mode baseline);
///  - "socket"     — frames serialize onto a unix-domain socketpair with
///    scatter-gather writev and are reassembled by a pump;
///  - "shm"        — frames ride a shared-memory byte ring.
///
/// Whatever the wire, the payload crosses it as opaque bytes under a
/// serde::FrameHeader built from Envelope metadata (type, dest_task,
/// trace id) — receivers rebuild the Envelope from the header alone, so
/// forwarding paths never parse payloads (the zero-copy invariant).
///
/// Also owns the shared BufferPool through which transport buffers are
/// recycled across senders and receivers (§V-A optimization 1).
class Transport {
 public:
  enum class Mode { kInProcess, kSocket, kShmRing };

  struct Options {
    Mode mode = Mode::kInProcess;
    /// Step mode: deliver wire frames synchronously inside TrySend (no
    /// pump thread), so wire modes are observably identical to
    /// in-process under a single-stepped reactor.
    bool inline_pump = false;
  };

  /// A send destination in the directory: a task's instance channel or a
  /// container's SMGR channel. Senders that may outlive the receiver
  /// (the SMGR's parked queues) hold Endpoints, never raw channel
  /// pointers: a torn-down endpoint cannot be dereferenced after free,
  /// and a re-registered one (container restart) receives its backlog on
  /// the fresh channel.
  struct Endpoint {
    enum class Kind { kInstance, kSmgr };
    Kind kind = Kind::kInstance;
    int32_t id = -1;
    bool operator<(const Endpoint& o) const {
      return kind != o.kind ? kind < o.kind : id < o.id;
    }
    bool operator==(const Endpoint& o) const {
      return kind == o.kind && id == o.id;
    }
  };
  static Endpoint InstanceEndpoint(TaskId task) {
    return Endpoint{Endpoint::Kind::kInstance, task};
  }
  static Endpoint SmgrEndpoint(ContainerId container) {
    return Endpoint{Endpoint::Kind::kSmgr, container};
  }

  Transport();
  ~Transport();

  /// Selects the wire. Must run before any endpoint registers (the links
  /// already opened on the old fabric cannot migrate); starts the pump
  /// thread for threaded wire modes. "in-process" + inline_pump=false is
  /// the default state of a fresh Transport.
  Status Configure(const Options& options);

  /// "in-process" / "socket" / "shm" -> Mode; anything else is an error.
  static Result<Mode> ParseMode(std::string_view name);
  static const char* ModeName(Mode mode);

  Status RegisterInstance(TaskId task, EnvelopeChannel* channel);
  Status UnregisterInstance(TaskId task);
  Status RegisterSmgr(ContainerId container, EnvelopeChannel* channel);
  Status UnregisterSmgr(ContainerId container);

  /// Non-blocking send to an endpoint, performed under the registry lock
  /// so a concurrent Unregister + channel destruction on another thread
  /// cannot free the channel mid-send. Returns kNotFound when the
  /// endpoint is not (currently) registered; kResourceExhausted when the
  /// destination is full (in-process: channel full; wire modes: window
  /// probe or wire backlog full); kCancelled when the destination
  /// closed. The envelope's payload is consumed only on OK — on failure
  /// it is intact for the caller to park and retry.
  Status TrySend(const Endpoint& dest, proto::Envelope* env);

  /// nullptr when the SMGR is not (currently) registered — e.g. its
  /// container is being restarted; senders retry.
  EnvelopeChannel* SmgrChannel(ContainerId container) const;

  /// Snapshot of every container whose SMGR is currently registered.
  /// The back-pressure control plane broadcasts to this set (rather than
  /// the plan's container list) so peers that are mid-restart are simply
  /// skipped instead of blackholing control envelopes.
  std::vector<ContainerId> RegisteredSmgrs() const;

  serde::BufferPool* buffer_pool() { return &buffer_pool_; }
  ipc::Fabric* fabric() { return fabric_.get(); }
  ipc::FabricStats fabric_stats() const { return fabric_->stats(); }

 private:
  static uint64_t LinkKey(const Endpoint& dest) {
    return (static_cast<uint64_t>(dest.kind == Endpoint::Kind::kSmgr) << 32) |
           static_cast<uint32_t>(dest.id);
  }

  /// Opens `dest`'s fabric link with a sink that rebuilds the Envelope
  /// from the frame header and pushes it into `channel`.
  Status OpenLinkLocked(const Endpoint& dest, EnvelopeChannel* channel);

  mutable std::mutex mutex_;
  Options options_;
  std::map<TaskId, EnvelopeChannel*> instances_;
  std::map<ContainerId, EnvelopeChannel*> smgrs_;
  serde::BufferPool buffer_pool_;
  std::unique_ptr<ipc::Fabric> fabric_;
  /// True for wire modes (socket/shm): delivery is asynchronous, so
  /// TrySend window-probes the destination channel before sending.
  bool wire_mode_ = false;
};

}  // namespace smgr
}  // namespace heron

#endif  // HERON_SMGR_TRANSPORT_H_
