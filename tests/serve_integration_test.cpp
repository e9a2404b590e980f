// Integration tests for the redspot-serve daemon: forks the real binary,
// drives it through the real socket with the real client, and asserts
//   (a) every socket answer is bit-identical to the offline Adaptive
//       decision over the same history prefix,
//   (b) protocol errors and oversized model specs are answered without
//       dropping the connection or other tenants,
//   (c) SIGTERM mid-load drains every buffered request and exits 130,
//   (d) a tenant that never reads its replies cannot stall the others.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/advisor.hpp"
#include "serve/client.hpp"
#include "trace/zone_traces.hpp"

namespace redspot::serve {
namespace {

namespace fs = std::filesystem;

#ifndef REDSPOT_SERVE_BIN
#error "REDSPOT_SERVE_BIN must be defined to the redspot-serve binary path"
#endif

pid_t spawn(const std::vector<std::string>& args, const std::string& out_path) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const int fd = ::open(out_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) _exit(127);
  ::dup2(fd, STDOUT_FILENO);
  ::dup2(fd, STDERR_FILENO);
  ::close(fd);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  _exit(127);
}

int wait_for(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Deterministic 2-zone market: one cheap-stable zone, one spiky zone.
ZoneTraceSet make_traces(std::size_t steps) {
  std::vector<Money> a, b;
  for (std::size_t i = 0; i < steps; ++i) {
    a.push_back(Money::cents(27 + static_cast<std::int64_t>(i % 5)));
    b.push_back(Money::cents((i / 30) % 2 == 0 ? 33 : 190));
  }
  std::vector<PriceSeries> series;
  series.emplace_back(0, kPriceStep, std::move(a));
  series.emplace_back(0, kPriceStep, std::move(b));
  return ZoneTraceSet({"za", "zb"}, std::move(series));
}

TraceInitMsg make_init(const ZoneTraceSet& full, std::size_t seed_samples,
                       std::size_t capacity) {
  TraceInitMsg init;
  init.start = full.start();
  init.step = full.step();
  init.capacity_samples = capacity;
  for (std::size_t z = 0; z < full.num_zones(); ++z) {
    init.zone_names.push_back(full.zone_name(z));
    std::vector<Money> seed;
    for (std::size_t i = 0; i < seed_samples; ++i)
      seed.push_back(full.zone(z).view().sample(i));
    init.samples.push_back(std::move(seed));
  }
  return init;
}

JobParams job_with_deadline(Duration remaining_time) {
  JobParams job;
  job.remaining_compute = 6 * kHour;
  job.remaining_time = remaining_time;
  return job;
}

class ServeDaemon {
 public:
  explicit ServeDaemon(const std::vector<std::string>& extra_args = {}) {
    dir_ = fs::temp_directory_path() /
           ("redspot-serve-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
    socket_ = (dir_ / "serve.sock").string();
    out_ = (dir_ / "daemon.out").string();
    std::vector<std::string> args = {REDSPOT_SERVE_BIN, "--socket", socket_,
                                     "--threads", "4"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    pid_ = spawn(args, out_);
  }

  ~ServeDaemon() {
    if (pid_ > 0 && ::waitpid(pid_, nullptr, WNOHANG) == 0) {
      ::kill(pid_, SIGKILL);
      wait_for(pid_);
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  const std::string& socket() const { return socket_; }
  pid_t pid() const { return pid_; }
  std::string output() const { return slurp(out_); }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
  std::string socket_;
  std::string out_;
  pid_t pid_ = -1;
};

TEST(ServeIntegration, SocketAnswersAreBitIdenticalToOfflineOracle) {
  constexpr std::size_t kSeed = 320;
  constexpr std::size_t kTotal = 360;
  const ZoneTraceSet full = make_traces(kTotal);
  ServeDaemon daemon;
  ServeClient client(daemon.socket());

  EXPECT_EQ(client.trace_init(make_init(full, kSeed, kTotal)),
            full.start() + kPriceStep * static_cast<Duration>(kSeed));

  ModelSpec spec;
  spec.history_span = kDay;
  const std::uint64_t hash = client.register_spec(spec);
  EXPECT_EQ(hash, spec.spec_hash());

  std::vector<Money> prices(full.num_zones());
  std::uint64_t request_id = 0;
  for (std::size_t i = kSeed; i < kTotal; ++i) {
    for (std::size_t z = 0; z < full.num_zones(); ++z)
      prices[z] = full.zone(z).view().sample(i);
    client.tick(prices);
    if ((i - kSeed) % 8 != 0) continue;
    // The live trace now holds samples [0, i]; the daemon must answer
    // exactly what the offline Adaptive decision over that prefix says.
    const JobParams job = job_with_deadline(12 * kHour + (i % 3) * kHour);
    const AdviceMsg got = client.advise(++request_id, hash, job);
    const ZoneTraceSet prefix = full.window(
        full.start(), full.start() + kPriceStep * static_cast<Duration>(i + 1));
    const Advice want = advise_offline(spec, prefix, job);
    EXPECT_EQ(got.request_id, request_id);
    ASSERT_EQ(got.advice, want) << "diverged at sample " << i;
  }

  const StatsReplyMsg stats = client.stats();
  EXPECT_EQ(stats.ticks, kTotal - kSeed);
  EXPECT_EQ(stats.advises, request_id);
  EXPECT_EQ(stats.models, 1u);  // every request shared one model
  EXPECT_GE(stats.batches, request_id);
}

TEST(ServeIntegration, TenantsSharingASpecShareOneModel) {
  constexpr std::size_t kSeed = 300;
  const ZoneTraceSet full = make_traces(kSeed);
  ServeDaemon daemon;

  ServeClient feed(daemon.socket());
  feed.trace_init(make_init(full, kSeed, kSeed + 16));

  ModelSpec spec;
  spec.history_span = kDay;
  ServeClient tenant_a(daemon.socket());
  ServeClient tenant_b(daemon.socket());
  const std::uint64_t ha = tenant_a.register_spec(spec);
  const std::uint64_t hb = tenant_b.register_spec(spec);
  EXPECT_EQ(ha, hb);

  const Advice want = advise_offline(spec, full, job_with_deadline(12 * kHour));
  const AdviceMsg ra = tenant_a.advise(1, ha, job_with_deadline(12 * kHour));
  const AdviceMsg rb = tenant_b.advise(1, hb, job_with_deadline(12 * kHour));
  EXPECT_EQ(ra.advice, want);
  EXPECT_EQ(rb.advice, want);

  const StatsReplyMsg stats = feed.stats();
  EXPECT_EQ(stats.models, 1u);
}

TEST(ServeIntegration, ProtocolErrorsAnswerWithoutDroppingTheConnection) {
  const ZoneTraceSet full = make_traces(64);
  ServeDaemon daemon;
  ServeClient client(daemon.socket());

  // Tick before init: Error, connection stays up.
  EXPECT_THROW(client.tick({Money::cents(30), Money::cents(31)}), ServeError);
  client.trace_init(make_init(full, 64, 80));
  // Second init: Error.
  EXPECT_THROW(client.trace_init(make_init(full, 64, 80)), ServeError);
  // Advising an unregistered spec: Error carrying the request id.
  try {
    client.advise(55, /*spec_hash=*/0xdeadbeef, job_with_deadline(kDay));
    FAIL() << "unknown spec hash must be refused";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.request_id(), 55u);
  }
  // Zone-count mismatch on a tick: Error.
  EXPECT_THROW(client.tick({Money::cents(30)}), ServeError);
  // The connection survived all of the above.
  ModelSpec spec;
  spec.history_span = kDay;
  const std::uint64_t hash = client.register_spec(spec);
  const AdviceMsg r = client.advise(1, hash, job_with_deadline(12 * kHour));
  EXPECT_EQ(r.advice, advise_offline(spec, full, job_with_deadline(12 * kHour)));
}

TEST(ServeIntegration, OversizedZoneSubsetSpecIsRefusedAndOthersServed) {
  // A spec allowing 64-zone subsets would make every advise enumerate
  // 2^64 - 1 of them on a batcher worker. It must be refused at register,
  // and the daemon must go on answering other tenants.
  constexpr std::size_t kSeed = 300;
  const ZoneTraceSet full = make_traces(kSeed);
  ServeDaemon daemon;
  ServeClient feed(daemon.socket());
  feed.trace_init(make_init(full, kSeed, kSeed + 16));

  ModelSpec hostile;
  hostile.history_span = kDay;
  hostile.max_zones = 64;
  ServeClient attacker(daemon.socket());
  try {
    attacker.register_spec(hostile);
    FAIL() << "max_zones = 64 must be refused";
  } catch (const ServeError& e) {
    EXPECT_EQ(std::string(e.what()), "invalid model spec");
  }

  ModelSpec spec;
  spec.history_span = kDay;
  ServeClient tenant(daemon.socket());
  const std::uint64_t hash = tenant.register_spec(spec);
  const AdviceMsg r = tenant.advise(1, hash, job_with_deadline(12 * kHour));
  EXPECT_EQ(r.advice, advise_offline(spec, full, job_with_deadline(12 * kHour)));
  EXPECT_EQ(feed.stats().models, 1u);
}

TEST(ServeIntegration, NonReadingTenantDoesNotStallOthersOnTheSameSpec) {
  // Tenant A pipelines far more advice than one socket send buffer holds
  // (about 300 replies) and reads none of it. The daemon must queue A's
  // replies instead of blocking the batcher worker that owns the spec's
  // key, so tenant B, advising on the same spec hash, is still answered;
  // and once A reads, every one of its answers arrives exactly once.
  constexpr std::size_t kSeed = 300;
  constexpr int kPipelined = 2000;
  const ZoneTraceSet full = make_traces(kSeed);
  // Shedding off: every one of A's requests is answered by the batcher
  // worker that owns the spec's key, the thread a blocking reply write
  // would stall with B's request queued behind it.
  ServeDaemon daemon({"--shed-limit", "0"});

  ServeClient feed(daemon.socket());
  feed.trace_init(make_init(full, kSeed, kSeed + 8));
  ModelSpec spec;
  spec.history_span = kDay;
  const JobParams job = job_with_deadline(12 * kHour);
  const Advice want = advise_offline(spec, full, job);

  ServeClient tenant_a(daemon.socket());
  const std::uint64_t hash = tenant_a.register_spec(spec);
  for (int i = 1; i <= kPipelined; ++i)
    tenant_a.advise_async(static_cast<std::uint64_t>(i), hash, job);

  ServeClientOptions b_options;
  b_options.endpoint = daemon.socket();
  b_options.reply_timeout_ms = 3'000;
  ServeClient tenant_b(b_options);
  EXPECT_EQ(tenant_b.advise(1, hash, job).advice, want);

  std::vector<bool> answered(kPipelined + 1, false);
  for (int i = 1; i <= kPipelined; ++i) {
    const AdviceMsg r = tenant_a.recv_advice();
    ASSERT_GT(r.request_id, 0u);
    ASSERT_LE(r.request_id, static_cast<std::uint64_t>(kPipelined));
    EXPECT_FALSE(answered[r.request_id]) << "duplicate response";
    answered[r.request_id] = true;
    EXPECT_EQ(r.advice, want) << "request " << r.request_id;
  }
}

TEST(ServeIntegration, SigtermMidLoadDrainsInFlightAdviceAndExits130) {
  constexpr std::size_t kSeed = 300;
  constexpr int kInFlight = 40;
  const ZoneTraceSet full = make_traces(kSeed);
  ServeDaemon daemon;

  ServeClient client(daemon.socket());
  client.trace_init(make_init(full, kSeed, kSeed + 8));
  ModelSpec spec;
  spec.history_span = kDay;
  const std::uint64_t hash = client.register_spec(spec);
  // Prove liveness once so the kill lands on a warmed-up daemon.
  client.advise(0, hash, job_with_deadline(12 * kHour));

  // Pile up a burst of requests, then SIGTERM while they are in flight.
  // Unix-socket sends land in the daemon's receive buffer synchronously,
  // so every one of these is "already submitted" when the signal hits —
  // the graceful drain owes us every answer.
  for (int i = 1; i <= kInFlight; ++i)
    client.advise_async(static_cast<std::uint64_t>(i), hash,
                        job_with_deadline(12 * kHour + (i % 4) * kHour));
  ASSERT_EQ(::kill(daemon.pid(), SIGTERM), 0);

  std::vector<bool> answered(kInFlight + 1, false);
  for (int i = 1; i <= kInFlight; ++i) {
    const AdviceMsg r = client.recv_advice();
    ASSERT_GT(r.request_id, 0u);
    ASSERT_LE(r.request_id, static_cast<std::uint64_t>(kInFlight));
    EXPECT_FALSE(answered[r.request_id]) << "duplicate response";
    answered[r.request_id] = true;
    const Advice want = advise_offline(
        spec, full,
        job_with_deadline(12 * kHour + (r.request_id % 4) * kHour));
    EXPECT_EQ(r.advice, want);
  }

  const int status = wait_for(daemon.pid());
  ASSERT_TRUE(WIFEXITED(status)) << daemon.output();
  EXPECT_EQ(WEXITSTATUS(status), 130) << daemon.output();
  // The final stats line made it out before exit; no tenant was dropped
  // for an unread backlog, so the overflow line stays out of it.
  EXPECT_NE(daemon.output().find("drained"), std::string::npos)
      << daemon.output();
  EXPECT_EQ(daemon.output().find("overflow"), std::string::npos)
      << daemon.output();
}

}  // namespace
}  // namespace redspot::serve
