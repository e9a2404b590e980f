// The pluggable stream transport (common/transport): endpoint parsing,
// unix + TCP listen/connect/accept round trips, the not-there-yet connect
// contract, EOF semantics, TCP_NODELAY on both ends of a TCP stream — and
// the deterministic fault layer: scripted FaultyStream behavior for all
// five fault kinds, the purity of fault_at(), NetFaultPlan parsing, and
// the injector's process-wide budget and arming — and the FramedLoop
// contract both daemons rely on, over unix and TCP: post() never blocks on
// a peer that does not read, every posted frame arrives intact, in each
// poster's order, exactly once; a peer past the outbound bound is dropped
// and counted; and close()/close_all() flush what was posted before EOF.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/frame.hpp"
#include "common/transport/fault.hpp"
#include "common/transport/framed_loop.hpp"
#include "common/transport/transport.hpp"

namespace redspot {
namespace {

namespace fs = std::filesystem;
using transport::Endpoint;
using transport::FaultAction;
using transport::FaultKind;
using transport::FaultyStream;
using transport::NetFaultInjector;
using transport::NetFaultPlan;
using transport::parse_endpoint;
using transport::parse_net_fault_plan;

std::string tmp_sock(const std::string& name) {
  const fs::path p = fs::path(::testing::TempDir()) /
                     ("redspot_tt_" + name + "_" +
                      std::to_string(::getpid()) + ".sock");
  fs::remove(p);
  return p.string();
}

/// Polls the non-blocking listener until the pending connection arrives.
std::unique_ptr<transport::Stream> accept_one(transport::Listener& l) {
  for (int i = 0; i < 2000; ++i) {
    if (auto s = l.accept()) return s;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return nullptr;
}

/// A connected (accepted-side, dialer-side) pair over `ep_text`.
std::pair<std::unique_ptr<transport::Stream>,
          std::unique_ptr<transport::Stream>>
make_pair_over(const std::string& ep_text,
               std::unique_ptr<transport::Listener>* keep_listener = nullptr) {
  const auto ep = parse_endpoint(ep_text);
  EXPECT_TRUE(ep.has_value());
  auto listener = transport::listen(*ep);
  auto dialer = transport::connect(listener->local_endpoint());
  EXPECT_NE(dialer, nullptr);
  auto accepted = accept_one(*listener);
  EXPECT_NE(accepted, nullptr);
  if (keep_listener != nullptr) *keep_listener = std::move(listener);
  return {std::move(accepted), std::move(dialer)};
}

/// Reads until one complete frame, EOF (nullopt), or corruption (throws).
std::optional<std::string> read_frame(transport::Stream& s, FrameBuffer& buf) {
  std::string payload;
  for (;;) {
    switch (buf.next(&payload)) {
      case FrameStatus::kOk:
        return payload;
      case FrameStatus::kCorrupt:
        throw std::runtime_error("corrupt frame");
      case FrameStatus::kNeedMore:
        break;
    }
    if (!s.read_into(buf)) return std::nullopt;
  }
}

// --- endpoint parsing -------------------------------------------------------

TEST(EndpointParse, UnixForms) {
  const auto bare = parse_endpoint("/tmp/fab.sock");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(bare->path, "/tmp/fab.sock");
  EXPECT_EQ(bare->str(), "unix:/tmp/fab.sock");

  const auto prefixed = parse_endpoint("unix:/run/x.sock");
  ASSERT_TRUE(prefixed.has_value());
  EXPECT_EQ(prefixed->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(prefixed->path, "/run/x.sock");
}

TEST(EndpointParse, TcpForms) {
  const auto ep = parse_endpoint("tcp:127.0.0.1:8443");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 8443);
  EXPECT_EQ(ep->str(), "tcp:127.0.0.1:8443");

  const auto ephemeral = parse_endpoint("tcp:0.0.0.0:0");
  ASSERT_TRUE(ephemeral.has_value());
  EXPECT_EQ(ephemeral->port, 0);
}

TEST(EndpointParse, RejectsMalformedInput) {
  EXPECT_FALSE(parse_endpoint(""));
  EXPECT_FALSE(parse_endpoint("unix:"));
  EXPECT_FALSE(parse_endpoint("tcp:"));
  EXPECT_FALSE(parse_endpoint("tcp:127.0.0.1"));       // missing port
  EXPECT_FALSE(parse_endpoint("tcp::8080"));           // missing host
  EXPECT_FALSE(parse_endpoint("tcp:127.0.0.1:"));      // empty port
  EXPECT_FALSE(parse_endpoint("tcp:127.0.0.1:waffle"));
  EXPECT_FALSE(parse_endpoint("tcp:127.0.0.1:70000"));  // > 65535
  EXPECT_FALSE(parse_endpoint("tcp:127.0.0.1:-1"));
}

// --- live round trips -------------------------------------------------------

TEST(Transport, UnixRoundTripBothDirections) {
  auto [server, client] = make_pair_over(tmp_sock("rt"));
  transport::send_frame(*client, "ping");
  transport::send_frame(*server, "pong");
  FrameBuffer sbuf, cbuf;
  EXPECT_EQ(read_frame(*server, sbuf), "ping");
  EXPECT_EQ(read_frame(*client, cbuf), "pong");
}

TEST(Transport, TcpRoundTripResolvesEphemeralPort) {
  std::unique_ptr<transport::Listener> listener;
  auto [server, client] = make_pair_over("tcp:127.0.0.1:0", &listener);
  const Endpoint bound = listener->local_endpoint();
  EXPECT_EQ(bound.kind, Endpoint::Kind::kTcp);
  EXPECT_GT(bound.port, 0) << "port 0 must resolve to the kernel's pick";
  transport::send_frame(*client, "over tcp");
  FrameBuffer buf;
  EXPECT_EQ(read_frame(*server, buf), "over tcp");
}

int tcp_nodelay(const transport::Stream& s) {
  int value = -1;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

TEST(Transport, TcpNoDelayOnBothEnds) {
  auto [accepted, dialed] = make_pair_over("tcp:127.0.0.1:0");
  EXPECT_EQ(tcp_nodelay(*dialed), 1) << "connect() side";
  EXPECT_EQ(tcp_nodelay(*accepted), 1) << "accept() side";
}

TEST(Transport, TcpWriteWriteReadDoesNotWaitOutDelayedAck) {
  // The coordinator's ack + lease shape: the accepting side writes two
  // frames back to back, then blocks on the peer's reply. With Nagle on
  // the accepted fd the second frame waits for the ACK of the first, and
  // the peer — silent until it has both — only ACKs when its delayed-ACK
  // timer fires (40 ms minimum on Linux).
  constexpr int kRounds = 20;
  auto [server, client] = make_pair_over("tcp:127.0.0.1:0");
  std::thread peer([&client = client] {
    FrameBuffer buf;
    for (int r = 0; r < kRounds; ++r) {
      if (!read_frame(*client, buf) || !read_frame(*client, buf)) return;
      transport::send_frame(*client, "reply");
    }
  });
  std::vector<double> round_ms;
  FrameBuffer buf;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    transport::send_frame(*server, "ack");
    transport::send_frame(*server, "lease");
    if (read_frame(*server, buf) != "reply") break;
    round_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
  }
  peer.join();
  ASSERT_EQ(round_ms.size(), static_cast<std::size_t>(kRounds));
  std::sort(round_ms.begin(), round_ms.end());
  EXPECT_LT(round_ms[kRounds / 2], 10.0)
      << "median write-write-read round stalls on the delayed-ACK timer";
}

TEST(Transport, ConnectToAbsentPeerIsNullptrNotThrow) {
  // Unix: no socket file.
  const auto gone = parse_endpoint(tmp_sock("absent"));
  EXPECT_EQ(transport::connect(*gone), nullptr);
  EXPECT_TRUE(errno == ENOENT || errno == ECONNREFUSED) << errno;

  // TCP: a port nobody listens on (bind :0, learn the port, close).
  {
    const auto probe = parse_endpoint("tcp:127.0.0.1:0");
    Endpoint closed;
    {
      auto listener = transport::listen(*probe);
      closed = listener->local_endpoint();
    }
    EXPECT_EQ(transport::connect(closed), nullptr);
    EXPECT_EQ(errno, ECONNREFUSED);
  }
}

TEST(Transport, AcceptIsNonBlockingWhenIdle) {
  const auto ep = parse_endpoint(tmp_sock("idle"));
  auto listener = transport::listen(*ep);
  EXPECT_EQ(listener->accept(), nullptr);  // must return, not block
}

TEST(Transport, PeerCloseReadsAsEof) {
  auto [server, client] = make_pair_over(tmp_sock("eof"));
  client.reset();
  FrameBuffer buf;
  EXPECT_EQ(read_frame(*server, buf), std::nullopt);
}

TEST(Transport, WriteToDeadPeerThrowsNotSigpipe) {
  auto [server, client] = make_pair_over(tmp_sock("dead"));
  server.reset();
  // The first write may land in the kernel buffer; keep pushing until the
  // RST surfaces. If SIGPIPE were not suppressed this would kill the test
  // binary rather than throw.
  const std::string frame = encode_frame(std::string(4096, 'x'));
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) client->write_all(frame);
      },
      std::runtime_error);
}

TEST(Transport, StaleUnixSocketIsReclaimed) {
  const std::string path = tmp_sock("stale");
  const auto ep = parse_endpoint(path);
  {
    auto listener = transport::listen(*ep);
    // Simulate a crash: drop the listener object but leave the file.
  }
  // A second bind over the (now stale, or cleanly removed) path must work.
  auto listener = transport::listen(*ep);
  auto dialer = transport::connect(*ep);
  EXPECT_NE(dialer, nullptr);
}

// --- scripted FaultyStream --------------------------------------------------

/// Hook firing exactly once, on the first write, with the given action.
FaultyStream::Hook once(FaultAction action) {
  auto fired = std::make_shared<bool>(false);
  return [fired, action](std::uint64_t,
                         std::size_t) -> std::optional<FaultAction> {
    if (*fired) return std::nullopt;
    *fired = true;
    return action;
  };
}

TEST(FaultyStream, DropConnThrowsAndPeerSeesCleanEof) {
  auto [server, client] = make_pair_over(tmp_sock("fdrop"));
  FaultyStream faulty(std::move(client), once({FaultKind::kDropConn, 0, 0}));
  EXPECT_THROW(faulty.write_all(encode_frame("doomed")), std::runtime_error);
  FrameBuffer buf;
  EXPECT_EQ(read_frame(*server, buf), std::nullopt);  // EOF, not corrupt
  // The stream is broken for good — later I/O fails fast.
  EXPECT_THROW(faulty.write_all("more"), std::runtime_error);
  char c = 0;
  EXPECT_THROW(faulty.read_some(&c, 1), std::runtime_error);
}

TEST(FaultyStream, DelayDeliversTheFrameIntact) {
  auto [server, client] = make_pair_over(tmp_sock("fdelay"));
  FaultyStream faulty(std::move(client), once({FaultKind::kDelay, 0, 5}));
  faulty.write_all(encode_frame("late but whole"));
  FrameBuffer buf;
  EXPECT_EQ(read_frame(*server, buf), "late but whole");
}

TEST(FaultyStream, DuplicateDeliversTwice) {
  auto [server, client] = make_pair_over(tmp_sock("fdup"));
  FaultyStream faulty(std::move(client), once({FaultKind::kDuplicate, 0, 0}));
  faulty.write_all(encode_frame("echo"));
  FrameBuffer buf;
  EXPECT_EQ(read_frame(*server, buf), "echo");
  EXPECT_EQ(read_frame(*server, buf), "echo");
}

TEST(FaultyStream, PartitionSwallowsWritesWhileReadsFlow) {
  auto [server, client] = make_pair_over(tmp_sock("fpart"));
  FaultyStream faulty(std::move(client), once({FaultKind::kPartition, 0, 0}));
  faulty.write_all(encode_frame("vanishes"));  // no throw, no delivery
  faulty.write_all(encode_frame("also vanishes"));
  // Reads still flow toward the partitioned side: one-way, not two-way.
  transport::send_frame(*server, "inbound survives");
  FrameBuffer buf;
  EXPECT_EQ(read_frame(faulty, buf), "inbound survives");
  // And the server never got a byte: nothing to read.
  EXPECT_EQ(faulty.bytes_offered(),
            encode_frame("vanishes").size() +
                encode_frame("also vanishes").size());
}

TEST(FaultyStream, OffsetAccountingAdvancesPreFault) {
  std::vector<std::uint64_t> offsets;
  auto [server, client] = make_pair_over(tmp_sock("foff"));
  FaultyStream faulty(std::move(client),
                      [&](std::uint64_t off,
                          std::size_t) -> std::optional<FaultAction> {
                        offsets.push_back(off);
                        return std::nullopt;
                      });
  faulty.write_all("abcd");
  faulty.write_all("efgh");
  faulty.write_all("i");
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 4u);
  EXPECT_EQ(offsets[2], 8u);
}

// --- plan parsing and fault_at purity ---------------------------------------

TEST(NetFaultPlanParse, AcceptsTheDocumentedForms) {
  const auto basic = parse_net_fault_plan("7:0.25");
  ASSERT_TRUE(basic.has_value());
  EXPECT_EQ(basic->seed, 7u);
  EXPECT_DOUBLE_EQ(basic->rate, 0.25);
  EXPECT_EQ(basic->kinds, transport::kAllFaultKinds);
  EXPECT_EQ(basic->max_faults, 8u);

  const auto kinds = parse_net_fault_plan("9:1.0:ct");
  ASSERT_TRUE(kinds.has_value());
  EXPECT_EQ(kinds->kinds, transport::fault_bit(FaultKind::kDropConn) |
                              transport::fault_bit(FaultKind::kTruncate));

  const auto full = parse_net_fault_plan("3:0.5:*:17");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->kinds, transport::kAllFaultKinds);
  EXPECT_EQ(full->max_faults, 17u);

  EXPECT_TRUE(parse_net_fault_plan("0:0")->enabled() == false);
}

TEST(NetFaultPlanParse, RejectsMalformedInput) {
  EXPECT_FALSE(parse_net_fault_plan(""));
  EXPECT_FALSE(parse_net_fault_plan("7"));
  EXPECT_FALSE(parse_net_fault_plan("x:0.5"));
  EXPECT_FALSE(parse_net_fault_plan("7:nope"));
  EXPECT_FALSE(parse_net_fault_plan("7:1.5"));     // rate > 1
  EXPECT_FALSE(parse_net_fault_plan("7:-0.1"));    // rate < 0
  EXPECT_FALSE(parse_net_fault_plan("7:0.5:z"));   // unknown kind letter
  EXPECT_FALSE(parse_net_fault_plan("7:0.5:c:no"));
  EXPECT_FALSE(parse_net_fault_plan("7:0.5:c:1:extra"));
}

TEST(FaultAt, IsAPureFunctionOfItsInputs) {
  NetFaultPlan plan;
  plan.seed = 42;
  plan.rate = 0.3;
  for (std::uint64_t conn = 0; conn < 3; ++conn) {
    for (std::uint64_t off = 0; off < 500; off += 7) {
      const auto first = transport::fault_at(plan, conn, off);
      for (int rep = 0; rep < 3; ++rep)
        EXPECT_EQ(transport::fault_at(plan, conn, off), first)
            << "conn=" << conn << " off=" << off;
    }
  }
}

TEST(FaultAt, NarrowingKindsNeverMovesWhereFaultsLand) {
  // The fire/no-fire draw is independent of the kind pick, so restricting
  // `kinds` changes WHAT happens at a faulted write, never WHICH writes
  // fault — chaos schedules stay comparable across fault menus.
  NetFaultPlan all;
  all.seed = 99;
  all.rate = 0.2;
  NetFaultPlan only_drop = all;
  only_drop.kinds = transport::fault_bit(FaultKind::kDropConn);

  std::set<std::uint64_t> all_sites, drop_sites;
  for (std::uint64_t off = 0; off < 4000; ++off) {
    if (transport::fault_at(all, 1, off)) all_sites.insert(off);
    if (const auto k = transport::fault_at(only_drop, 1, off)) {
      drop_sites.insert(off);
      EXPECT_EQ(*k, FaultKind::kDropConn);
    }
  }
  EXPECT_EQ(all_sites, drop_sites);
  EXPECT_FALSE(all_sites.empty()) << "rate 0.2 over 4000 offsets fired never";
}

TEST(FaultAt, RateZeroAndRateOneBehave) {
  NetFaultPlan off;
  off.seed = 5;
  off.rate = 0.0;
  NetFaultPlan always;
  always.seed = 5;
  always.rate = 1.0;
  for (std::uint64_t o = 0; o < 200; ++o) {
    EXPECT_FALSE(transport::fault_at(off, 0, o));
    EXPECT_TRUE(transport::fault_at(always, 0, o));
  }
}

// --- the injector -----------------------------------------------------------

TEST(NetFaultInjector, DisabledPlanIsPassthrough) {
  NetFaultInjector injector(NetFaultPlan{});  // rate 0 = disabled
  auto [server, client] = make_pair_over(tmp_sock("inj_off"));
  auto wrapped = injector.wrap(std::move(client));
  transport::send_frame(*wrapped, "clean");
  FrameBuffer buf;
  EXPECT_EQ(read_frame(*server, buf), "clean");
  EXPECT_EQ(injector.injected(), 0u);
}

TEST(NetFaultInjector, BudgetBoundsTotalInjections) {
  // Duplicate-only at rate 1.0: every write would double-deliver, but the
  // budget of 3 lets exactly three fire. 10 frames in → 13 frames out.
  NetFaultPlan plan;
  plan.seed = 11;
  plan.rate = 1.0;
  plan.kinds = transport::fault_bit(FaultKind::kDuplicate);
  plan.max_faults = 3;
  NetFaultInjector injector(plan);

  auto [server, client] = make_pair_over(tmp_sock("inj_budget"));
  auto wrapped = injector.wrap(std::move(client));
  for (int i = 0; i < 10; ++i)
    transport::send_frame(*wrapped, std::string("n") + std::to_string(i));
  wrapped.reset();  // EOF so the count below is final

  FrameBuffer buf;
  int frames = 0;
  while (read_frame(*server, buf)) ++frames;
  EXPECT_EQ(frames, 13);
  EXPECT_EQ(injector.injected(), 3u);
}

TEST(NetFaultInjector, UnarmedInjectsNothingUntilArmed) {
  NetFaultPlan plan;
  plan.seed = 11;
  plan.rate = 1.0;
  plan.kinds = transport::fault_bit(FaultKind::kDuplicate);
  plan.max_faults = 100;
  NetFaultInjector injector(plan, /*armed=*/false);

  auto [server, client] = make_pair_over(tmp_sock("inj_arm"));
  auto wrapped = injector.wrap(std::move(client));
  transport::send_frame(*wrapped, "setup");
  EXPECT_EQ(injector.injected(), 0u);
  injector.arm();
  transport::send_frame(*wrapped, "chaos");
  EXPECT_GT(injector.injected(), 0u);
}

// --- FramedLoop -------------------------------------------------------------

using transport::FramedLoop;
using ConnId = FramedLoop::ConnId;

/// A FramedLoop on a unix or TCP endpoint, the dialed peer, and the id the
/// loop gave it. The loop is driven by the test thread until the peer is
/// accepted; tests that post from other threads then start drive().
class FramedLoopTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    const std::string ep_text =
        GetParam() ? std::string("tcp:127.0.0.1:0")
                   : tmp_sock("loop_" + std::to_string(counter_++));
    loop_ = std::make_unique<FramedLoop>(
        *parse_endpoint(ep_text),
        FramedLoop::Handlers{
            .on_frame = [](ConnId, std::string_view) {},
            .on_open = [this](ConnId id) { opened_.store(id); },
            .on_close = [this](ConnId id) { closed_.store(id); }});
    peer_ = transport::connect(*parse_endpoint(loop_->local_endpoint()));
    ASSERT_NE(peer_, nullptr);
    for (int i = 0; i < 2000 && opened_.load() == 0; ++i) loop_->poll_once(1);
    ASSERT_NE(opened_.load(), 0u);
    id_ = opened_.load();
  }

  void TearDown() override { stop_driving(); }

  /// Runs the loop on its own thread, as a daemon's main thread does.
  void drive() {
    loop_thread_ = std::thread([this] {
      while (!stop_.load()) loop_->poll_once(5);
    });
  }
  void stop_driving() {
    stop_.store(true);
    if (loop_thread_.joinable()) loop_thread_.join();
  }

  /// Reads frames until EOF; throws on a corrupt stream.
  std::vector<std::string> read_until_eof() {
    std::vector<std::string> frames;
    FrameBuffer buf;
    while (auto f = read_frame(*peer_, buf)) frames.push_back(std::move(*f));
    return frames;
  }

  static inline int counter_ = 0;
  std::unique_ptr<FramedLoop> loop_;
  std::unique_ptr<transport::Stream> peer_;
  ConnId id_ = 0;
  std::atomic<ConnId> opened_{0};
  std::atomic<ConnId> closed_{0};
  std::atomic<bool> stop_{false};
  std::thread loop_thread_;
};

/// Frame `seq` of poster `thread`: its identity plus a pattern derived
/// from it, so a torn, shifted or mixed-up frame cannot pass for it.
std::string poster_frame(int thread, int seq, std::size_t size) {
  std::string s = std::to_string(thread) + ":" + std::to_string(seq) + ":";
  for (std::size_t i = 0; s.size() < size; ++i)
    s.push_back(static_cast<char>('a' + (thread * 7 + seq + i) % 26));
  return s;
}

TEST_P(FramedLoopTest, PostFromFourThreadsNeverBlocksOnAPeerThatDoesNotRead) {
  // 4 x 150 x 8 KiB = 4.7 MiB: past what the socket buffers hold, under
  // the outbound bound.
  constexpr int kThreads = 4;
  constexpr int kFrames = 150;
  constexpr std::size_t kSize = 8 << 10;
  drive();
  std::atomic<int> done{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&, t] {
      for (int i = 0; i < kFrames; ++i)
        loop_->post(id_, poster_frame(t, i, kSize));
      done.fetch_add(1);
    });
  }
  // The peer reads nothing until every poster has returned: a post that
  // blocked on the socket would never return.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (done.load() < kThreads && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(done.load(), kThreads) << "post() blocked on a non-reading peer";

  FrameBuffer buf;
  std::vector<int> next(kThreads, 0);
  for (int n = 0; n < kThreads * kFrames; ++n) {
    const auto frame = read_frame(*peer_, buf);
    ASSERT_TRUE(frame.has_value()) << "EOF after " << n << " frames";
    const int t = std::stoi(*frame);
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    ASSERT_LT(next[static_cast<std::size_t>(t)], kFrames) << "extra frame";
    ASSERT_EQ(*frame,
              poster_frame(t, next[static_cast<std::size_t>(t)]++, kSize))
        << "poster " << t << " out of order or torn";
  }
  for (std::thread& p : posters) p.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(next[static_cast<std::size_t>(t)], kFrames);
  EXPECT_EQ(loop_->overflow_disconnects(), 0u);
  EXPECT_EQ(closed_.load(), 0u);
}

TEST_P(FramedLoopTest, PeerPastTheOutboundBoundIsDisconnectedAndCounted) {
  drive();
  const std::string mib(1 << 20, 'x');
  // Whatever the socket buffers absorb, 64 MiB unread passes an 8 MiB
  // queue bound; posts after the disconnect are no-ops.
  for (int i = 0; i < 64 && loop_->overflow_disconnects() == 0; ++i)
    loop_->post(id_, mib);
  ASSERT_EQ(loop_->overflow_disconnects(), 1u);
  // The peer gets what was sent before the drop, then EOF.
  const std::vector<std::string> frames = read_until_eof();
  for (const std::string& f : frames) EXPECT_EQ(f, mib);
  EXPECT_LT(frames.size() * mib.size(),
            FramedLoop::kMaxOutboundBytes + (16u << 20));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (closed_.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(closed_.load(), id_);
}

/// Posts 6 MiB to the non-reading peer plus a last frame, closes the
/// connection with `close_all` or close(id), and has the peer read only
/// afterwards: everything must arrive before EOF.
void expect_flushed_before_eof(FramedLoop& loop, ConnId id,
                               transport::Stream& peer, bool close_all) {
  constexpr int kFrames = 96;
  const std::string chunk(64 << 10, 'q');
  for (int i = 0; i < kFrames; ++i) loop.post(id, chunk);
  loop.post(id, "done");

  std::vector<std::string> frames;
  std::atomic<bool> at_eof{false};
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    FrameBuffer buf;
    while (auto f = read_frame(peer, buf)) frames.push_back(std::move(*f));
    at_eof.store(true);
  });
  if (close_all) {
    loop.close_all();
  } else {
    loop.close(id);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!at_eof.load() && std::chrono::steady_clock::now() < deadline)
      loop.poll_once(5);
  }
  reader.join();
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kFrames + 1));
  for (int i = 0; i < kFrames; ++i) EXPECT_EQ(frames[i], chunk);
  EXPECT_EQ(frames.back(), "done");
}

TEST_P(FramedLoopTest, CloseAfterPostDeliversTheQueuedFramesBeforeEof) {
  expect_flushed_before_eof(*loop_, id_, *peer_, /*close_all=*/false);
}

TEST_P(FramedLoopTest, CloseAllAfterPostDeliversTheQueuedFramesBeforeEof) {
  expect_flushed_before_eof(*loop_, id_, *peer_, /*close_all=*/true);
  EXPECT_EQ(closed_.load(), 0u) << "close_all fires no on_close";
}

INSTANTIATE_TEST_SUITE_P(Transports, FramedLoopTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return std::string(p.param ? "Tcp" : "Unix");
                         });

}  // namespace
}  // namespace redspot
