// Pluggable stream transport: one interface, unix-socket and TCP backends.
//
// The fabric (src/fabric/) and the serve plane (src/serve/) both speak
// CRC-framed messages (common/frame.hpp) over a byte stream. This layer is
// the one place that owns the blocking connect/accept/read/write plumbing
// they used to duplicate: a `Stream` is a connected full-duplex byte pipe,
// a `Listener` hands out Streams, and an `Endpoint` names either kind —
//
//   unix:/tmp/fab.sock      (or a bare path, for compatibility)
//   tcp:HOST:PORT           (PORT 0 binds an ephemeral port; see
//                            Listener::local_endpoint())
//
// Semantics every implementation keeps, because the layers above rely on
// them:
//
//   * Streams are blocking descriptors: the dialing side (fabric worker,
//     serve client) writes with write_all() and reads after poll(). The
//     daemons' side never blocks on them: FramedLoop (framed_loop.hpp)
//     drives accepted streams through fd() with MSG_DONTWAIT sends and
//     receives. Listeners are non-blocking: accept() returns nullptr when
//     nothing is pending.
//   * write_all() sends every byte or throws (dead peer = EPIPE/
//     ECONNRESET surfaces as std::runtime_error, never SIGPIPE), resuming
//     across EINTR and short writes like the common/fs helpers.
//   * read_some() returns 0 on EOF and throws on real errors; EINTR is
//     retried internally.
//   * connect() returns nullptr — errno preserved — when the peer is not
//     there *yet* (ENOENT, ECONNREFUSED), which is a retry-with-backoff
//     condition for callers, not an error.
//   * Both ends of every TCP stream are TCP_NODELAY — the dialed one from
//     connect() and the accepted one from Listener::accept() — so a
//     write-write-read exchange never waits out the peer's delayed ACK.
//     Unix streams have no Nagle and are left as they are.
//
// The network's failure modes (drops, stalls, torn frames, duplicate
// deliveries, one-way partitions) are injected by wrapping a Stream in a
// FaultyStream (transport/fault.hpp); the protocol layers never know.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/frame.hpp"

namespace redspot::transport {

/// A parsed transport address: a unix-socket path or a TCP host:port.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;         ///< unix: filesystem path of the socket
  std::string host;         ///< tcp: numeric IP or hostname
  std::uint16_t port = 0;   ///< tcp: 0 = ephemeral (listen only)

  /// Canonical text form ("unix:PATH" / "tcp:HOST:PORT").
  std::string str() const;
};

/// Parses "unix:PATH", "tcp:HOST:PORT", or a bare filesystem path (treated
/// as unix for compatibility with pre-transport --socket flags). Returns
/// nullopt on malformed input (empty path, bad port, missing host).
std::optional<Endpoint> parse_endpoint(const std::string& text);

/// A connected, blocking, full-duplex byte stream.
class Stream {
 public:
  virtual ~Stream() = default;

  /// The underlying descriptor, for poll()-based readiness checks. Fault
  /// decorators return the inner stream's fd.
  virtual int fd() const = 0;

  /// Sends all of `data`, resuming across EINTR and short writes. Throws
  /// std::runtime_error on any failure including a dead peer.
  virtual void write_all(std::string_view data) = 0;

  /// Reads whatever is available (one read() call, EINTR-retried) into
  /// `dst`, up to `cap` bytes. Returns 0 on EOF. Throws on real errors.
  virtual std::size_t read_some(char* dst, std::size_t cap) = 0;

  /// Reads one read_some() worth of bytes into a frame buffer. Returns
  /// false on EOF — the peer is gone.
  bool read_into(FrameBuffer& buf);
};

/// A bound, non-blocking listener handing out connected Streams.
class Listener {
 public:
  virtual ~Listener() = default;

  virtual int fd() const = 0;

  /// Accepts one pending connection, or nullptr when none is pending (or
  /// the attempt was transiently interrupted). Throws on listener
  /// breakage. Accepted streams are blocking descriptors (FramedLoop does
  /// non-blocking I/O on them per call), and TCP ones get the same
  /// TCP_NODELAY tuning as a connect()ed stream.
  virtual std::unique_ptr<Stream> accept() = 0;

  /// The actual bound address — resolves port 0 to the kernel-assigned
  /// ephemeral port, so in-process peers can dial it.
  virtual Endpoint local_endpoint() const = 0;
};

/// Binds and listens on `ep`, unlinking any stale unix socket first (a
/// crashed listener leaves one behind) and setting SO_REUSEADDR on TCP
/// (a crashed-and-restarted coordinator must rebind through TIME_WAIT).
/// Throws std::runtime_error on failure.
std::unique_ptr<Listener> listen(const Endpoint& ep, int backlog = 64);

/// Connects to `ep`. Returns nullptr (errno preserved) when the listener
/// is not there yet — ENOENT and ECONNREFUSED are reconnect-with-backoff
/// conditions. Throws std::runtime_error on unexpected failures.
std::unique_ptr<Stream> connect(const Endpoint& ep);

/// Sends one frame (header + payload) fully. Throws std::runtime_error on
/// any failure including a dead peer.
void send_frame(Stream& stream, std::string_view payload);

}  // namespace redspot::transport
