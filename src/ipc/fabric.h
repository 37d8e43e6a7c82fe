#ifndef HERON_IPC_FABRIC_H_
#define HERON_IPC_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "common/status.h"
#include "serde/message_pool.h"
#include "serde/wire.h"

namespace heron {
namespace ipc {

/// \brief Per-fabric wire counters; the transport bench and tests read
/// these to prove the scatter-gather and zero-copy claims.
struct FabricStats {
  uint64_t frames_sent = 0;       ///< SendFrame calls that returned OK.
  uint64_t frames_delivered = 0;  ///< Frames handed to a sink (OK result).
  uint64_t bytes_on_wire = 0;     ///< Header + payload bytes serialized.
  /// writev() calls that pushed header and payload in one syscall (socket
  /// fabric only — the scatter-gather flush).
  uint64_t gather_writes = 0;
  uint64_t partial_writes = 0;    ///< Short writes spilled to pending_out.
  uint64_t sink_stalls = 0;       ///< Deliveries refused by a full sink.
};

/// Receives one decoded frame. The payload buffer is handed over by move;
/// on OK the sink owns it. On kResourceExhausted (receiver full) the sink
/// MUST leave the buffer intact in the rvalue it was passed — the fabric
/// retains the frame and retries on a later pump. Any other error drops
/// the frame.
using FrameSink =
    std::function<Status(const serde::FrameHeader&, serde::Buffer&&)>;

/// \brief The pluggable wire: a byte-level transport contract between
/// registered endpoints ("links"), below any knowledge of Envelopes or
/// routing (src/smgr adapts Envelope <-> FrameHeader on top of it).
///
/// One link per registered endpoint, keyed by an opaque u64 the layer
/// above chooses. Frames are length-prefixed (serde::FrameHeader) and the
/// payload bytes cross the wire untouched — framing is the only thing the
/// fabric adds or inspects.
///
/// Contract:
///  - OpenLink/CloseLink bracket an endpoint's lifetime. CloseLink drains
///    frames already readable into the sink (best effort), then tears the
///    link down; after it returns, no sink call for that link is running
///    or will run — the registrar may free the structures the sink
///    captured.
///  - SendFrame is non-blocking. kResourceExhausted when the wire-side
///    backlog cap is reached (sender parks and retries), kNotFound for an
///    unknown link. On OK the fabric has serialized (or handed off) the
///    payload; what remains in `*payload` is the caller's to recycle.
///    On failure the payload is left intact for the caller to retry.
///  - Pump() drives delivery: reads complete frames, draws payload
///    buffers from the shared pool, and invokes sinks. In-process
///    delivery is synchronous inside SendFrame, so its Pump is a no-op.
///    PumpLink(key) pumps one link — step-mode transports call it inline
///    after every send so delivery timing is byte-identical to the
///    in-process fabric.
///  - StartPump/StopPump run Pump on a background thread (threaded
///    clusters); both are idempotent.
///
/// Thread safety: all methods are safe to call concurrently. One mutex
/// serializes link-map access, wire access and sink invocation, so a
/// CloseLink cannot race a delivery into freed channels.
class Fabric {
 public:
  struct Options {
    /// Per-link cap on wire-side backlog (pending unflushed bytes for the
    /// socket fabric, ring capacity for the shm fabric).
    size_t link_capacity_bytes = 1u << 20;
    /// Pool that receive paths draw payload buffers from (not owned).
    /// nullptr = plain allocation.
    serde::BufferPool* pool = nullptr;
  };

  /// Background pump cadence (threaded mode).
  static constexpr int64_t kPumpIntervalMicros = 200;

  virtual ~Fabric() = default;

  virtual const char* name() const = 0;
  virtual Status OpenLink(uint64_t key, FrameSink sink) = 0;
  virtual Status CloseLink(uint64_t key) = 0;
  virtual Status SendFrame(uint64_t key, const serde::FrameHeader& header,
                           serde::Buffer* payload) = 0;
  virtual void Pump() = 0;
  virtual void PumpLink(uint64_t key) = 0;
  virtual FabricStats stats() const = 0;

  void StartPump();
  void StopPump();

 protected:
  explicit Fabric(const Options& options) : options_(options) {}

  serde::Buffer AcquireBuffer() {
    return options_.pool != nullptr ? options_.pool->Acquire()
                                    : serde::Buffer();
  }

  Options options_;

 private:
  std::thread pump_thread_;
  std::atomic<bool> pumping_{false};
};

/// \brief Today's channels, behind the contract: SendFrame looks up the
/// link and invokes its sink synchronously, moving the payload straight
/// through — no header serialization, no copy, no pump. The baseline every
/// wire fabric must be observably identical to in step mode.
class InProcessFabric final : public Fabric {
 public:
  explicit InProcessFabric(const Options& options) : Fabric(options) {}

  const char* name() const override { return "in-process"; }
  Status OpenLink(uint64_t key, FrameSink sink) override;
  Status CloseLink(uint64_t key) override;
  Status SendFrame(uint64_t key, const serde::FrameHeader& header,
                   serde::Buffer* payload) override;
  void Pump() override {}
  void PumpLink(uint64_t key) override {}
  FabricStats stats() const override;

 private:
  mutable std::mutex mutex_;
  std::map<uint64_t, FrameSink> links_;
  FabricStats stats_;
};

/// \brief Unix-domain stream sockets (socketpair per link): frames are
/// serialized onto a real kernel byte stream with scatter-gather writev
/// (header + payload in one syscall), short writes spill into a bounded
/// per-link pending buffer, and the pump reassembles frames from the
/// nonblocking read side.
class SocketFabric final : public Fabric {
 public:
  explicit SocketFabric(const Options& options) : Fabric(options) {}
  ~SocketFabric() override;

  const char* name() const override { return "socket"; }
  Status OpenLink(uint64_t key, FrameSink sink) override;
  Status CloseLink(uint64_t key) override;
  Status SendFrame(uint64_t key, const serde::FrameHeader& header,
                   serde::Buffer* payload) override;
  void Pump() override;
  void PumpLink(uint64_t key) override;
  FabricStats stats() const override;

 private:
  struct Link {
    int write_fd = -1;
    int read_fd = -1;
    FrameSink sink;
    /// Bytes writev could not push (kernel buffer full); flushed ahead of
    /// new frames so the stream never interleaves.
    serde::Buffer pending_out;
    /// Read-side reassembly buffer: bytes read but not yet framed.
    serde::Buffer rdbuf;
    /// A decoded frame the sink refused (receiver full); must deliver
    /// before anything newer (FIFO).
    bool stalled = false;
    serde::FrameHeader stalled_header;
    serde::Buffer stalled_payload;
  };

  Status FlushPendingLocked(Link* link);
  /// Delivers everything readable on one link; stops at a sink stall.
  void PumpLinkLocked(Link* link);
  void DrainAndCloseLocked(Link* link);

  mutable std::mutex mutex_;
  std::map<uint64_t, std::unique_ptr<Link>> links_;
  FabricStats stats_;
};

/// \brief Single-host shared-memory ring per link: frames are written into
/// an mmap'd byte ring with wrap-aware two-part copies; head/tail indices
/// use acquire/release ordering so the pump can read concurrently with a
/// sender. The tail only advances after a successful sink delivery, so a
/// full receiver stalls the ring in place (no frame is dropped or copied
/// aside).
class ShmRingFabric final : public Fabric {
 public:
  explicit ShmRingFabric(const Options& options) : Fabric(options) {}
  ~ShmRingFabric() override;

  const char* name() const override { return "shm"; }
  Status OpenLink(uint64_t key, FrameSink sink) override;
  Status CloseLink(uint64_t key) override;
  Status SendFrame(uint64_t key, const serde::FrameHeader& header,
                   serde::Buffer* payload) override;
  void Pump() override;
  void PumpLink(uint64_t key) override;
  FabricStats stats() const override;

 private:
  struct Ring {
    char* base = nullptr;  ///< mmap'd MAP_SHARED region.
    size_t capacity = 0;
    std::atomic<uint64_t> head{0};  ///< Next write offset (monotonic).
    std::atomic<uint64_t> tail{0};  ///< Next read offset (monotonic).
    FrameSink sink;
  };

  void WriteWrapped(Ring* ring, uint64_t at, const char* src, size_t len);
  void ReadWrapped(const Ring* ring, uint64_t at, char* dst, size_t len);
  /// Delivers frames until the ring is empty or the sink stalls.
  void PumpRingLocked(Ring* ring);

  mutable std::mutex mutex_;
  std::map<uint64_t, std::unique_ptr<Ring>> links_;
  FabricStats stats_;
};

/// Factory for the `heron.transport.mode` knob. Recognized modes:
/// "in-process", "socket", "shm". Unknown mode -> kInvalidArgument.
Result<std::unique_ptr<Fabric>> MakeFabric(const std::string& mode,
                                           const Fabric::Options& options);

}  // namespace ipc
}  // namespace heron

#endif  // HERON_IPC_FABRIC_H_
