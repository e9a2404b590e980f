#include "common/transport/framed_loop.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "common/log.hpp"

namespace redspot::transport {

namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sends what the socket takes right now: the bytes sent (0 when it would
/// block), or -1 when the peer is gone.
ssize_t send_now(int fd, std::string_view data) {
  for (;;) {
    // MSG_NOSIGNAL: a dead peer must surface as an error, not SIGPIPE.
    const ssize_t n =
        ::send(fd, data.data(), data.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

}  // namespace

struct FramedLoop::Conn {
  ConnId id = 0;
  std::unique_ptr<Stream> stream;
  FrameBuffer in;  ///< loop thread only
  /// Guards out/out_pos and every send on the descriptor, so frames from
  /// concurrent posters never interleave.
  std::mutex out_mutex;
  std::string out;  ///< queued frame bytes; [out_pos, size) unsent
  std::size_t out_pos = 0;
  std::atomic<bool> dead{false};
  /// Loop thread only: dead by close(), so queued bytes are still flushed.
  bool linger = false;
  std::int64_t flush_deadline = 0;  ///< closing_ only

  int fd() const { return stream->fd(); }
  std::size_t pending() const { return out.size() - out_pos; }
};

FramedLoop::FramedLoop(const Endpoint& ep, Handlers handlers)
    : handlers_(std::move(handlers)),
      listener_(listen(ep)),
      bound_(listener_->local_endpoint().str()) {
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0)
    throw std::runtime_error(std::string("transport: eventfd: ") +
                             std::strerror(errno));
}

FramedLoop::~FramedLoop() { ::close(wake_fd_); }

void FramedLoop::wake() {
  const std::uint64_t one = 1;
  // Only fails when the counter would overflow: the loop is awake anyway.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

std::size_t FramedLoop::poll_once(int timeout_ms) {
  fds_.clear();
  owners_.clear();
  const bool accepting = listener_ && conns_.size() < kMaxConnections;
  fds_.push_back({wake_fd_, POLLIN, 0});
  // poll() skips a negative descriptor.
  fds_.push_back({accepting ? listener_->fd() : -1, POLLIN, 0});
  for (const auto& [id, c] : conns_) {
    std::lock_guard lock(c->out_mutex);
    const int events = c->pending() > 0 ? POLLIN | POLLOUT : POLLIN;
    fds_.push_back({c->fd(), static_cast<short>(events), 0});
    owners_.push_back(c.get());
  }
  const std::size_t live = owners_.size();
  std::int64_t timeout = timeout_ms;
  const std::int64_t now = closing_.empty() ? 0 : now_ms();
  for (const auto& c : closing_) {
    fds_.push_back({c->fd(), POLLOUT, 0});
    owners_.push_back(c.get());
    timeout = std::min(timeout, std::max<std::int64_t>(0, c->flush_deadline - now));
  }

  if (::poll(fds_.data(), fds_.size(), static_cast<int>(timeout)) < 0) {
    if (errno == EINTR) return 0;  // a signal: the caller re-checks its flag
    throw std::runtime_error(std::string("transport: poll: ") +
                             std::strerror(errno));
  }
  if (fds_[0].revents & POLLIN) {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof(count));
  }

  std::size_t readable = 0;
  for (std::size_t i = 0; i < owners_.size(); ++i) {
    Conn& c = *owners_[i];
    const short revents = fds_[i + 2].revents;
    if (revents == 0) continue;
    if (i >= live || (revents & POLLOUT)) {
      std::lock_guard lock(c.out_mutex);
      flush_locked(c);
    }
    if (i < live && (revents & (POLLIN | POLLHUP | POLLERR))) {
      ++readable;
      service(c);
    }
  }
  if (fds_[1].revents & POLLIN) accept_pending();
  reap();
  return readable;
}

void FramedLoop::accept_pending() {
  while (listener_ && conns_.size() < kMaxConnections) {
    std::unique_ptr<Stream> stream = listener_->accept();
    if (!stream) return;
    auto c = std::make_unique<Conn>();
    const ConnId id = next_id_++;
    c->id = id;
    c->stream = std::move(stream);
    {
      std::unique_lock lock(conns_mutex_);
      conns_.emplace(id, std::move(c));
    }
    if (handlers_.on_open) handlers_.on_open(id);
  }
}

void FramedLoop::service(Conn& c) {
  if (c.dead.load()) return;
  char chunk[64 * 1024];
  ssize_t n;
  do {
    n = ::recv(c.fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
    c.dead.store(true);  // EOF or a broken stream
    return;
  }
  if (n > 0) c.in.append(chunk, static_cast<std::size_t>(n));
  std::string frame;
  while (!c.dead.load() && c.in.next(&frame) == FrameStatus::kOk)
    handlers_.on_frame(c.id, frame);
  if (c.in.corrupt()) c.dead.store(true);
}

void FramedLoop::flush_locked(Conn& c) {
  while (c.pending() > 0) {
    const ssize_t n = send_now(
        c.fd(), std::string_view(c.out).substr(c.out_pos));
    if (n < 0) {
      c.dead.store(true);
      c.out.clear();
      c.out_pos = 0;
      return;
    }
    if (n == 0) return;
    c.out_pos += static_cast<std::size_t>(n);
  }
  c.out.clear();
  c.out_pos = 0;
}

void FramedLoop::post(ConnId id, std::string_view payload) {
  const std::string frame = encode_frame(payload);
  std::shared_lock map_lock(conns_mutex_);
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  std::lock_guard lock(c.out_mutex);
  if (c.dead.load()) return;
  std::string_view rest = frame;
  if (c.pending() == 0) {
    const ssize_t n = send_now(c.fd(), rest);
    if (n < 0) {
      c.dead.store(true);
      wake();  // reap promptly
      return;
    }
    rest.remove_prefix(static_cast<std::size_t>(n));
    if (rest.empty()) return;
  }
  if (c.pending() + rest.size() > kMaxOutboundBytes) {
    c.dead.store(true);  // not closed by close(): reaped without a flush
    overflow_disconnects_.fetch_add(1, std::memory_order_relaxed);
    LOG_WARN << "transport: dropping connection " << id << ": more than "
             << (kMaxOutboundBytes >> 20) << " MiB of replies unread";
    wake();
    return;
  }
  const bool was_idle = c.pending() == 0;
  if (c.out_pos > 0 && c.out_pos >= c.pending()) {
    c.out.erase(0, c.out_pos);
    c.out_pos = 0;
  }
  c.out.append(rest);
  if (was_idle) wake();  // the loop must start asking for POLLOUT
}

void FramedLoop::close(ConnId id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (!c.dead.exchange(true)) c.linger = true;
}

std::vector<FramedLoop::ConnId> FramedLoop::connections() const {
  std::vector<ConnId> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, c] : conns_)
    if (!c->dead.load()) ids.push_back(id);
  return ids;
}

void FramedLoop::stop_accepting() { listener_.reset(); }

void FramedLoop::reap() {
  // The loop thread is the only writer of conns_, so it may scan unlocked;
  // the exclusive lock, which stalls posters, is taken only to erase.
  const bool any_dead =
      std::any_of(conns_.begin(), conns_.end(),
                  [](const auto& entry) { return entry.second->dead.load(); });
  if (!any_dead && closing_.empty()) return;
  std::vector<ConnId> gone;
  const std::int64_t now = now_ms();
  {
    std::unique_lock lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (!it->second->dead.load()) {
        ++it;
        continue;
      }
      gone.push_back(it->first);
      std::unique_ptr<Conn> c = std::move(it->second);
      it = conns_.erase(it);
      if (c->linger && c->pending() > 0) {
        c->flush_deadline = now + kCloseFlushMs;
        closing_.push_back(std::move(c));
      }
    }
  }
  std::erase_if(closing_, [&](const std::unique_ptr<Conn>& c) {
    return c->pending() == 0 || now >= c->flush_deadline;
  });
  if (handlers_.on_close)
    for (const ConnId id : gone) handlers_.on_close(id);
}

void FramedLoop::close_all() {
  stop_accepting();
  {
    std::unique_lock lock(conns_mutex_);
    const std::int64_t deadline = now_ms() + kCloseFlushMs;
    for (auto& [id, c] : conns_) {
      if (c->dead.load() && !c->linger) continue;  // broken: nothing to flush
      if (c->pending() == 0) continue;
      c->flush_deadline = deadline;
      closing_.push_back(std::move(c));
    }
    conns_.clear();
  }
  while (!closing_.empty()) poll_once(kCloseFlushMs);
}

}  // namespace redspot::transport
