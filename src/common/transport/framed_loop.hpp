// FramedLoop: the one connection loop both daemons run.
//
// redspot-serve (src/serve/server.cpp) and the fabric coordinator
// (src/fabric/coordinator.cpp) serve many peers that speak CRC-framed
// messages (common/frame.hpp) over accepted transport streams. This class
// owns everything about those connections and leaves the daemon only its
// dispatch:
//
//   * the listener, drained accept-until-nullptr up to kMaxConnections;
//   * per connection: the inbound FrameBuffer, a bounded outbound byte
//     queue and a dead flag;
//   * one poll() over the listener, every connection and an eventfd that
//     other threads use to wake the loop;
//   * read -> FrameBuffer::next -> on_frame, dropping a connection whose
//     stream is corrupt or at EOF, and reaping the dead at the end of the
//     round.
//
// No thread ever blocks on a peer's socket. post() may be called from any
// thread: with nothing queued for the connection it sends at once with
// MSG_DONTWAIT, so the common one-send reply costs no extra hop; whatever
// the socket does not take is queued, the loop is woken, and the loop
// flushes on POLLOUT (asked for only while bytes are pending). A peer that
// lets more than kMaxOutboundBytes pile up is disconnected and counted in
// overflow_disconnects().
//
// Accepted streams stay blocking descriptors (Listener::accept); the loop
// never calls their blocking write_all/read_some, only recv/send with
// MSG_DONTWAIT on fd().
#pragma once

#include <poll.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/transport/transport.hpp"

namespace redspot::transport {

class FramedLoop {
 public:
  /// Connection ids start at 1, are issued in accept order and are never
  /// reused, so 0 can mean "no connection".
  using ConnId = std::uint64_t;

  /// Open connections at most; further peers wait in the listen backlog.
  static constexpr std::size_t kMaxConnections = 1024;
  /// Outbound bytes one connection may have queued before it is dropped.
  static constexpr std::size_t kMaxOutboundBytes = 8u << 20;
  /// How long close() and close_all() keep flushing queued bytes before
  /// the descriptor is closed regardless.
  static constexpr int kCloseFlushMs = 5'000;

  /// Callbacks, all run on the thread calling poll_once().
  struct Handlers {
    /// One complete, checksum-valid frame from `id`.
    std::function<void(ConnId id, std::string_view payload)> on_frame;
    /// A newly accepted connection. May be null.
    std::function<void(ConnId id)> on_open;
    /// `id` is gone (EOF, error, corrupt stream, overflow or close()), at
    /// the end of the round that lost it; post() to it is now a no-op.
    /// Not called for connections closed by close_all(). May be null.
    std::function<void(ConnId id)> on_close;
  };

  /// Binds and listens on `ep` (see transport::listen). Throws
  /// std::runtime_error on failure.
  FramedLoop(const Endpoint& ep, Handlers handlers);
  /// Closes every descriptor at once, without flushing.
  ~FramedLoop();

  FramedLoop(const FramedLoop&) = delete;
  FramedLoop& operator=(const FramedLoop&) = delete;

  /// The bound endpoint in canonical text form (tcp:HOST:0 resolved),
  /// also after the listener is closed.
  const std::string& local_endpoint() const { return bound_; }

  /// One round: waits up to `timeout_ms` for traffic, then accepts, reads
  /// and dispatches, flushes, and reaps. Returns how many connections had
  /// bytes to read, so a caller can sweep until the kernel buffers are
  /// empty. A signal interrupting the wait ends the round early.
  std::size_t poll_once(int timeout_ms);

  /// Queues one frame carrying `payload` for `id`. Thread-safe and never
  /// blocks; a no-op once `id` is dead or gone.
  void post(ConnId id, std::string_view payload);

  /// Stops reading from `id` and reaps it at the end of the round. Bytes
  /// already posted to it are still delivered, within kCloseFlushMs,
  /// before EOF. Loop thread only.
  void close(ConnId id);

  /// Open connections, in accept order. Loop thread only.
  std::vector<ConnId> connections() const;

  /// Closes the listener; open connections stay.
  void stop_accepting();

  /// Stops accepting, flushes every connection's queued bytes for up to
  /// kCloseFlushMs, then closes them all. Loop thread only; no other
  /// thread may post() concurrently.
  void close_all();

  /// Peers disconnected for letting their outbound queue pass
  /// kMaxOutboundBytes.
  std::uint64_t overflow_disconnects() const {
    return overflow_disconnects_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  void accept_pending();
  /// Reads once from `c` and dispatches every complete frame.
  void service(Conn& c);
  /// Sends queued bytes until the socket would block; caller holds
  /// c.out_mutex.
  void flush_locked(Conn& c);
  void reap();
  void wake();

  Handlers handlers_;
  std::unique_ptr<Listener> listener_;
  std::string bound_;
  int wake_fd_ = -1;
  ConnId next_id_ = 1;
  /// Live connections. The loop thread is the only writer and takes the
  /// lock exclusively to insert or erase; post() holds it shared.
  mutable std::shared_mutex conns_mutex_;
  std::map<ConnId, std::unique_ptr<Conn>> conns_;
  /// Connections closed with bytes still queued: flushed until empty or
  /// their deadline. Loop thread only.
  std::vector<std::unique_ptr<Conn>> closing_;
  std::atomic<std::uint64_t> overflow_disconnects_{0};
  /// poll_once's scratch, kept to reuse its capacity.
  std::vector<pollfd> fds_;
  std::vector<Conn*> owners_;
};

}  // namespace redspot::transport
