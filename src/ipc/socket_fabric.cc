#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>

#include "common/logging.h"
#include "common/strings.h"
#include "ipc/fabric.h"

namespace heron {
namespace ipc {

namespace {

Status SetFdNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(
        StrFormat("fcntl(O_NONBLOCK) failed: %s", std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

SocketFabric::~SocketFabric() {
  StopPump();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [_, link] : links_) {
    if (link->write_fd >= 0) ::close(link->write_fd);
    if (link->read_fd >= 0) ::close(link->read_fd);
  }
  links_.clear();
}

Status SocketFabric::OpenLink(uint64_t key, FrameSink sink) {
  if (sink == nullptr) return Status::InvalidArgument("null frame sink");
  std::lock_guard<std::mutex> lock(mutex_);
  if (links_.count(key) != 0) {
    return Status::AlreadyExists(
        StrFormat("fabric link %llu already open",
                  static_cast<unsigned long long>(key)));
  }
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IOError(
        StrFormat("socketpair failed: %s", std::strerror(errno)));
  }
  Status st = SetFdNonBlocking(fds[0]);
  if (st.ok()) st = SetFdNonBlocking(fds[1]);
  if (!st.ok()) {
    ::close(fds[0]);
    ::close(fds[1]);
    return st;
  }
  auto link = std::make_unique<Link>();
  link->write_fd = fds[0];
  link->read_fd = fds[1];
  link->sink = std::move(sink);
  links_.emplace(key, std::move(link));
  return Status::OK();
}

Status SocketFabric::CloseLink(uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = links_.find(key);
  if (it == links_.end()) return Status::NotFound("fabric link not open");
  DrainAndCloseLocked(it->second.get());
  links_.erase(it);
  return Status::OK();
}

Status SocketFabric::FlushPendingLocked(Link* link) {
  // Flush the spill buffer ahead of anything new so the byte stream never
  // interleaves frames.
  size_t off = 0;
  while (off < link->pending_out.size()) {
    const ssize_t n = ::write(link->write_fd, link->pending_out.data() + off,
                              link->pending_out.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN (kernel buffer full) or a hard error.
  }
  if (off > 0) link->pending_out.erase(0, off);
  return link->pending_out.empty()
             ? Status::OK()
             : Status::ResourceExhausted("socket send backlog");
}

Status SocketFabric::SendFrame(uint64_t key, const serde::FrameHeader& header,
                               serde::Buffer* payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = links_.find(key);
  if (it == links_.end()) return Status::NotFound("fabric link not open");
  Link* link = it->second.get();

  const size_t frame_bytes = serde::kFrameHeaderBytes + payload->size();
  // The wire-side backlog cap is the fabric's own backpressure: a sender
  // that cannot even spill must park the whole frame and retry, exactly
  // like a full channel.
  if (!link->pending_out.empty()) {
    FlushPendingLocked(link).ok();
    if (link->pending_out.size() + frame_bytes >
        options_.link_capacity_bytes) {
      return Status::ResourceExhausted("socket send backlog full");
    }
  }

  char wire_header[serde::kFrameHeaderBytes];
  serde::EncodeFrameHeader(header, wire_header);

  size_t written = 0;
  if (link->pending_out.empty()) {
    // Scatter-gather: header and payload leave in one writev, so framing
    // never costs an extra copy or syscall on the happy path.
    struct iovec iov[2];
    iov[0].iov_base = wire_header;
    iov[0].iov_len = serde::kFrameHeaderBytes;
    iov[1].iov_base = const_cast<char*>(payload->data());
    iov[1].iov_len = payload->size();
    const int iovcnt = payload->empty() ? 1 : 2;
    ssize_t n;
    do {
      n = ::writev(link->write_fd, iov, iovcnt);
    } while (n < 0 && errno == EINTR);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      return Status::IOError(
          StrFormat("writev failed: %s", std::strerror(errno)));
    }
    if (n > 0) written = static_cast<size_t>(n);
    if (iovcnt == 2 && written > 0) ++stats_.gather_writes;
  }

  if (written < frame_bytes) {
    // Short write: spill the unwritten tail (whole frames stay contiguous
    // in pending_out, so a later flush resumes mid-frame byte-exactly).
    if (link->pending_out.size() + (frame_bytes - written) >
        options_.link_capacity_bytes) {
      if (written == 0) {
        return Status::ResourceExhausted("socket send backlog full");
      }
      // A prefix is already on the wire; the remainder MUST spill past the
      // cap or the stream tears. The cap check above makes this rare.
    }
    ++stats_.partial_writes;
    if (written < serde::kFrameHeaderBytes) {
      link->pending_out.append(wire_header + written,
                               serde::kFrameHeaderBytes - written);
      link->pending_out.append(*payload);
    } else {
      link->pending_out.append(*payload,
                               written - serde::kFrameHeaderBytes,
                               serde::Buffer::npos);
    }
  }

  ++stats_.frames_sent;
  stats_.bytes_on_wire += frame_bytes;
  // The payload was copied to the wire; hand the intact buffer back for
  // the caller to recycle through its pool.
  return Status::OK();
}

void SocketFabric::PumpLinkLocked(Link* link) {
  FlushPendingLocked(link).ok();

  // FIFO: a frame the receiver refused earlier must land before anything
  // newer is even read off the socket.
  if (link->stalled) {
    const Status st =
        link->sink(link->stalled_header, std::move(link->stalled_payload));
    if (st.IsResourceExhausted()) {
      ++stats_.sink_stalls;
      return;
    }
    link->stalled = false;
    link->stalled_payload = serde::Buffer();
    if (st.ok()) ++stats_.frames_delivered;
  }

  // Drain the socket into the reassembly buffer.
  char chunk[65536];
  while (true) {
    const ssize_t n = ::read(link->read_fd, chunk, sizeof(chunk));
    if (n > 0) {
      link->rdbuf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN (nothing more) or EOF/err.
  }

  // Deliver every complete frame.
  size_t consumed = 0;
  while (true) {
    const serde::BytesView rest =
        serde::BytesView(link->rdbuf).substr(consumed);
    if (rest.size() < serde::kFrameHeaderBytes) break;
    serde::FrameHeader header;
    if (!serde::DecodeFrameHeader(rest, &header).ok()) {
      HLOG(ERROR) << "fabric stream desync; dropping " << rest.size()
                  << " buffered bytes";
      consumed = link->rdbuf.size();
      break;
    }
    const size_t frame_bytes = serde::kFrameHeaderBytes + header.payload_len;
    if (rest.size() < frame_bytes) break;  // Partial frame; wait for more.
    serde::Buffer payload = AcquireBuffer();
    payload.assign(rest.data() + serde::kFrameHeaderBytes,
                   header.payload_len);
    consumed += frame_bytes;
    const Status st = link->sink(header, std::move(payload));
    if (st.IsResourceExhausted()) {
      // Receiver full: keep the frame (the sink left the payload intact by
      // contract) and stop delivering on this link until the next pump.
      ++stats_.sink_stalls;
      link->stalled = true;
      link->stalled_header = header;
      link->stalled_payload = std::move(payload);
      break;
    }
    if (st.ok()) ++stats_.frames_delivered;
  }
  if (consumed > 0) link->rdbuf.erase(0, consumed);
}

void SocketFabric::DrainAndCloseLocked(Link* link) {
  // Graceful close loses nothing already on the wire: push out the spill
  // buffer, then deliver every readable frame. A sink that is full at
  // close time drops the remainder — the same loss a dying in-process
  // channel takes.
  FlushPendingLocked(link).ok();
  PumpLinkLocked(link);
  if (link->stalled) {
    link->stalled = false;
    link->stalled_payload = serde::Buffer();
  }
  ::close(link->write_fd);
  ::close(link->read_fd);
  link->write_fd = -1;
  link->read_fd = -1;
}

void SocketFabric::Pump() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [_, link] : links_) PumpLinkLocked(link.get());
}

void SocketFabric::PumpLink(uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = links_.find(key);
  if (it != links_.end()) PumpLinkLocked(it->second.get());
}

FabricStats SocketFabric::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace ipc
}  // namespace heron
