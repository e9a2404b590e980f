#include "common/transport/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace redspot::transport {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("transport: " + what + ": " + std::strerror(errno));
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("transport: unix path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("transport: bad tcp host (want a numeric IPv4 "
                             "address): " + ep.host);
  return addr;
}

void set_nonblocking(int fd, const std::string& what) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("fcntl " + what);
  }
}

/// Latency tuning for a connected TCP socket, applied to both ends of
/// every stream — dialed and accepted alike. Request/response frames are
/// latency-bound, not throughput-bound: a side that writes two frames
/// back to back and then reads (the coordinator's ack + lease) must not
/// have Nagle hold the second frame until the peer's delayed ACK fires.
void tune_tcp_stream(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// A connected socket: identical code for unix and TCP — the transport
/// differences live entirely in address setup.
class FdStream final : public Stream {
 public:
  explicit FdStream(int fd) : fd_(fd) {}
  ~FdStream() override {
    if (fd_ >= 0) ::close(fd_);
  }

  int fd() const override { return fd_; }

  void write_all(std::string_view data) override {
    std::size_t sent = 0;
    while (sent < data.size()) {
      // MSG_NOSIGNAL: a dead peer must surface as an error, not SIGPIPE.
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail("send");
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  std::size_t read_some(char* dst, std::size_t cap) override {
    ssize_t n;
    do {
      n = ::read(fd_, dst, cap);
    } while (n < 0 && errno == EINTR);
    if (n < 0) fail("read");
    return static_cast<std::size_t>(n);
  }

 private:
  int fd_ = -1;
};

class FdListener final : public Listener {
 public:
  FdListener(int fd, Endpoint bound) : fd_(fd), bound_(std::move(bound)) {}
  ~FdListener() override {
    if (fd_ >= 0) ::close(fd_);
    // The bound unix inode outlives the descriptor; remove it so the next
    // bind at this path does not need the stale-socket unlink.
    if (bound_.kind == Endpoint::Kind::kUnix) ::unlink(bound_.path.c_str());
  }

  int fd() const override { return fd_; }

  std::unique_ptr<Stream> accept() override {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      // The connecting peer may already be gone, or a signal interrupted
      // us; both mean "nothing to accept right now".
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK)
        return nullptr;
      fail("accept");
    }
    // Accepted fds stay blocking (Linux does not inherit O_NONBLOCK), so
    // write_all/read_some keep their blocking contract; FramedLoop never
    // calls them and sends and receives with MSG_DONTWAIT instead.
    if (bound_.kind == Endpoint::Kind::kTcp) tune_tcp_stream(fd);
    return std::make_unique<FdStream>(fd);
  }

  Endpoint local_endpoint() const override { return bound_; }

 private:
  int fd_ = -1;
  Endpoint bound_;
};

}  // namespace

std::string Endpoint::str() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

std::optional<Endpoint> parse_endpoint(const std::string& text) {
  Endpoint ep;
  if (text.rfind("tcp:", 0) == 0) {
    const std::string rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) return std::nullopt;
    ep.kind = Endpoint::Kind::kTcp;
    ep.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    if (port_text.empty() ||
        port_text.find_first_not_of("0123456789") != std::string::npos)
      return std::nullopt;
    const unsigned long port = std::strtoul(port_text.c_str(), nullptr, 10);
    if (port > 65535) return std::nullopt;
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  // "unix:PATH", or a bare path for compatibility with pre-transport
  // --socket flags.
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = text.rfind("unix:", 0) == 0 ? text.substr(5) : text;
  if (ep.path.empty()) return std::nullopt;
  return ep;
}

std::unique_ptr<Listener> listen(const Endpoint& ep, int backlog) {
  const int domain = ep.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");

  int rc = 0;
  Endpoint bound = ep;
  if (ep.kind == Endpoint::Kind::kUnix) {
    // A previous listener that crashed leaves its socket inode behind;
    // bind() would fail with EADDRINUSE even though nobody is listening.
    ::unlink(ep.path.c_str());
    const sockaddr_un addr = make_unix_addr(ep.path);
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } else {
    // SO_REUSEADDR: a crashed-and-restarted coordinator must rebind its
    // port through the predecessor's TIME_WAIT sockets.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = make_tcp_addr(ep);
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind " + ep.str());
  }
  if (::listen(fd, backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("listen " + ep.str());
  }
  if (ep.kind == Endpoint::Kind::kTcp && ep.port == 0) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail("getsockname " + ep.str());
    }
    bound.port = ntohs(actual.sin_port);
  }
  // Non-blocking listener: callers drain accept() until nullptr after a
  // poll() wakeup.
  set_nonblocking(fd, ep.str());
  return std::make_unique<FdListener>(fd, std::move(bound));
}

std::unique_ptr<Stream> connect(const Endpoint& ep) {
  const int domain = ep.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");

  int rc;
  if (ep.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = make_unix_addr(ep.path);
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
  } else {
    const sockaddr_in addr = make_tcp_addr(ep);
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
  }
  if (rc == 0) {
    if (ep.kind == Endpoint::Kind::kTcp) tune_tcp_stream(fd);
    return std::make_unique<FdStream>(fd);
  }
  const int saved = errno;
  ::close(fd);
  errno = saved;
  if (saved == ENOENT || saved == ECONNREFUSED || saved == EAGAIN ||
      saved == ETIMEDOUT)
    return nullptr;
  fail("connect " + ep.str());
}

bool Stream::read_into(FrameBuffer& buf) {
  char chunk[64 * 1024];
  const std::size_t n = read_some(chunk, sizeof(chunk));
  if (n == 0) return false;
  buf.append(std::string_view(chunk, n));
  return true;
}

void send_frame(Stream& stream, std::string_view payload) {
  stream.write_all(encode_frame(payload));
}

}  // namespace redspot::transport
