// serve-mixed: the real redspot-serve daemon (2 advise threads) on a unix
// socket, with a feed connection ticking prices at 20 Hz (TickStore
// appends plus eager model slides: the writes) beside one tenant
// connection sending pipelined advise requests for 1000 tenants sharing 8
// models (the reads). The only workload with the proto codec, transport,
// poll loop, batcher and registry on the critical path.
//
// Two phases share the daemon: an open loop at a fixed rate, timed from
// each request's due time (the latency metrics), then a closed loop with a
// fixed number of requests in flight (the capacity metric).
#include <poll.h>
#include <signal.h>

#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/transport/transport.hpp"
#include "exp/scenario.hpp"
#include "serve/advisor.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"
#include "trace/synthetic.hpp"

using namespace redspot;

namespace bench {

namespace {

constexpr std::size_t kSeedSamples = 600;
/// Ticks the daemon reserves room for; far more than any run sends.
constexpr std::size_t kTickCapacity = 4000;
constexpr std::size_t kTenants = 1000;
constexpr std::size_t kModels = 8;
constexpr double kTickHz = 20.0;
/// Open-loop advise rate (requests/s), well under the daemon's capacity
/// on 4 cores so the latency reflects service, not an unbounded backlog.
/// At lower rates the daemon's threads fall asleep between requests and
/// the median moves more from run to run.
constexpr double kOpenRate = 8000.0;
/// The daemon's shed limit (queued advises). Its default, 1024, is an
/// eighth of a second at kOpenRate, and a slow spell of a shared host has
/// filled it; 16384 holds two seconds.
constexpr const char* kShedLimit = "16384";
/// Requests in flight in the closed-loop capacity phase; below the
/// daemon's shed limit, so nothing is ever answered stale.
constexpr std::size_t kWindow = 32;
/// One answer in this many is checked against advise_offline.
constexpr std::uint64_t kCheckEvery = 64;

/// The paper calibration for `seed` from the start of the high-volatility
/// month: 600 samples of history plus room for every tick.
ZoneTraceSet serve_trace(std::uint64_t seed) {
  const SimTime s0 = window_start(VolatilityWindow::kHigh);
  const Duration span =
      static_cast<Duration>(kSeedSamples + kTickCapacity) * kPriceStep;
  const ZoneTraceSet full =
      generate_traces(trimmed_spec(paper_trace_spec(seed), s0 + span));
  return full.window(s0, s0 + span);
}

/// Eight shared models: distinct history windows and Markov resolutions.
std::vector<serve::ModelSpec> model_specs() {
  std::vector<serve::ModelSpec> specs;
  for (std::size_t i = 0; i < kModels; ++i) {
    serve::ModelSpec spec;
    spec.history_span = kDay + static_cast<Duration>(i % 4) * (kDay / 4);
    spec.max_states = 16 + 4 * i;
    specs.push_back(std::move(spec));
  }
  return specs;
}

serve::JobParams tenant_job(std::size_t tenant) {
  serve::JobParams job;
  job.remaining_compute = 6 * kHour;
  job.remaining_time = 12 * kHour + static_cast<Duration>(tenant % 5) * kHour;
  return job;
}

/// A redspot-serve child process, seeded and with the 8 specs registered
/// over its feed connection.
class ServeDaemon {
 public:
  ServeDaemon(const Options& opt, const ZoneTraceSet& trace, const std::string& tag)
      : endpoint_("unix:" + opt.work(tag + ".sock")),
        child_({opt.bin("redspot-serve"), "--socket", endpoint_, "--threads", "2",
                "--shed-limit", kShedLimit, "--quiet"},
               opt.work(tag + ".out"), opt.work(tag + ".err")),
        started_(Clock::now()) {
    wait_until_listening();
    feed_ = std::make_unique<serve::ServeClient>(endpoint_, 10'000);
    serve::TraceInitMsg init;
    init.start = trace.start();
    init.step = trace.step();
    init.capacity_samples = kSeedSamples + kTickCapacity;
    for (std::size_t z = 0; z < trace.num_zones(); ++z) {
      init.zone_names.push_back(trace.zone_name(z));
      const std::span<const Money> s = trace.zone(z).samples();
      init.samples.emplace_back(s.begin(), s.begin() + kSeedSamples);
    }
    feed_->trace_init(init);
    for (const serve::ModelSpec& spec : model_specs())
      hashes_.push_back(feed_->register_spec(spec));
  }

  const std::string& endpoint() const { return endpoint_; }
  const std::vector<std::uint64_t>& hashes() const { return hashes_; }
  serve::ServeClient& feed() { return *feed_; }

  /// SIGTERM, then wait for the drain; returns the exit code (130 is a
  /// clean drain). usage() and wall_s() are valid afterwards.
  int stop() {
    feed_.reset();
    child_.signal(SIGTERM);
    const int rc = child_.wait(10.0);
    wall_s_ = seconds_since(started_);
    return rc;
  }
  const rusage& usage() const { return child_.usage(); }
  double wall_s() const { return wall_s_; }

 private:
  /// Tries a throwaway connection every 20 us until the daemon accepts.
  /// ServeClient's own retry backs off by 20 ms or more, which would make
  /// most of the measured set-up a randomized sleep.
  void wait_until_listening() {
    const auto ep = transport::parse_endpoint(endpoint_);
    while (!transport::connect(*ep)) {
      if (!child_.running() || seconds_since(started_) > 10)
        throw std::runtime_error("serve: daemon did not start on " + endpoint_);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  std::string endpoint_;
  Child child_;
  Clock::time_point started_;
  std::unique_ptr<serve::ServeClient> feed_;
  std::vector<std::uint64_t> hashes_;
  double wall_s_ = 0;
};

struct Reply {
  std::uint64_t id = 0;
  bool error = false;
  serve::AdviceMsg advice;
};

/// The tenant connection: raw pipelined advise requests. One thread may
/// send while another receives (the stream holds nothing but its fd).
class Tenant {
 public:
  Tenant(const std::string& endpoint, std::vector<std::uint64_t> hashes)
      : hashes_(std::move(hashes)) {
    const auto ep = transport::parse_endpoint(endpoint);
    for (int attempt = 0; ep && !stream_ && attempt < 5000; ++attempt) {
      stream_ = transport::connect(*ep);
      if (!stream_) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!stream_) throw std::runtime_error("serve: cannot connect to " + endpoint);
  }

  void send(std::uint64_t id) {
    const std::size_t tenant = id % kTenants;
    transport::send_frame(*stream_,
                          serve::encode_advise(serve::AdviseMsg{
                              id, hashes_[tenant % kModels], tenant_job(tenant)}));
  }

  /// Waits up to `timeout_ms` for bytes, then hands every complete reply
  /// to `fn`. False when the daemon hung up or sent garbage.
  template <typename Fn>
  bool receive(int timeout_ms, Fn&& fn) {
    pollfd pfd{stream_->fd(), POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) > 0 && !stream_->read_into(in_)) return false;
    std::string payload;
    while (in_.next(&payload) == FrameStatus::kOk) {
      Reply r;
      if (serve::msg_type(payload) == serve::MsgType::kAdvice) {
        const auto a = serve::decode_advice(payload);
        if (!a) return false;
        r.id = a->request_id;
        r.advice = *a;
      } else {
        const auto e = serve::decode_error(payload);
        r.error = true;
        r.id = e ? e->request_id : 0;
      }
      fn(r);
    }
    return !in_.corrupt();
  }

 private:
  std::vector<std::uint64_t> hashes_;
  std::unique_ptr<transport::Stream> stream_;
  FrameBuffer in_;
};

/// Answers kept for the bit-for-bit check against advise_offline.
struct Checked {
  std::uint64_t id = 0;
  serve::Advice advice;
};

/// Tallies one phase's replies; failures are reported once per kind.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> late_us;
  std::uint64_t sent = 0, answered = 0, errors = 0, stale = 0, unexpected = 0;
  double wall_s = 0;  ///< closed loop: first send to last answer

  /// Books a reply; false when it does not count as a good answer.
  bool book(const Reply& r, std::vector<Checked>& checks) {
    ++answered;
    if (r.error) {
      ++errors;
      return false;
    }
    if (r.advice.stale) {
      ++stale;
      return false;
    }
    if (r.id % kCheckEvery == 0) checks.push_back({r.id, r.advice.advice});
    return true;
  }

  void report(const std::string& name, Outcome& out) const {
    out.attempted += sent;
    if (errors > 0) out.fail(name + ": " + std::to_string(errors) + " error replies", errors);
    if (stale > 0) out.fail(name + ": " + std::to_string(stale) + " stale (shed) answers", stale);
    if (unexpected > 0)
      out.fail(name + ": " + std::to_string(unexpected) + " unexpected reply ids", unexpected);
    if (answered < sent)
      out.fail(name + ": " + std::to_string(sent - answered) + " requests unanswered",
               sent - answered);
  }
};

/// Open loop: request k is due at start + k / rate whatever the daemon
/// does; the sender sends everything due at each wake-up, and latency runs
/// from the due time, so a stall also charges the requests queued behind
/// it.
Phase open_loop(Tenant& tenant, std::uint64_t& next_id, double rate, double seconds,
                bool traced, std::vector<Checked>& checks) {
  Span span(traced ? "serve.open_loop" : "serve.open_loop_untraced");
  const int parent = traced ? span.id() : -1;
  Phase p;
  const std::uint64_t first = next_id;
  const auto total = static_cast<std::uint64_t>(rate * seconds);
  next_id += total;
  p.sent = total;
  p.late_us.assign(total, 0.0);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](std::uint64_t id) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(id - first) / rate));
  };
  std::atomic<bool> send_failed{false};
  std::thread sender([&] {
    try {
      for (std::uint64_t k = 0; k < total;) {
        std::this_thread::sleep_until(due(first + k));
        const auto now = Clock::now();
        while (k < total && due(first + k) <= now) {
          tenant.send(first + k);
          p.late_us[k] = std::chrono::duration<double, std::micro>(now - due(first + k)).count();
          ++k;
        }
      }
    } catch (const std::exception&) {
      send_failed = true;
    }
  });
  std::vector<char> seen(total, 0);
  const auto give_up = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds + 10.0));
  while (p.answered < total && !send_failed && Clock::now() < give_up) {
    const bool ok = tenant.receive(50, [&](const Reply& r) {
      const auto now = Clock::now();
      if (r.id < first || r.id >= first + total || seen[r.id - first]) {
        ++p.unexpected;
        return;
      }
      seen[r.id - first] = 1;
      if (!p.book(r, checks)) return;
      p.latency_ms.push_back(std::chrono::duration<double, std::milli>(now - due(r.id)).count());
      if (traced) Tracer::global().record("serve.advise", due(r.id), now, parent);
    });
    if (!ok) break;
  }
  sender.join();
  return p;
}

/// Closed loop: `window` requests always in flight until `seconds` pass,
/// then the last ones drain. latency_ms holds round trips.
Phase closed_loop(Tenant& tenant, std::uint64_t& next_id, std::size_t window,
                  double seconds, std::vector<Checked>& checks) {
  Span span("serve.closed_loop");
  Phase p;
  std::unordered_map<std::uint64_t, Clock::time_point> in_flight;
  const auto start = Clock::now();
  auto send_next = [&] {
    in_flight.emplace(next_id, Clock::now());
    tenant.send(next_id++);
    ++p.sent;
  };
  for (std::size_t i = 0; i < window; ++i) send_next();
  while (!in_flight.empty() && seconds_since(start) < seconds + 10.0) {
    const bool ok = tenant.receive(50, [&](const Reply& r) {
      const auto it = in_flight.find(r.id);
      if (it == in_flight.end()) {
        ++p.unexpected;
        return;
      }
      const auto now = Clock::now();
      p.latency_ms.push_back(std::chrono::duration<double, std::milli>(now - it->second).count());
      p.wall_s = std::chrono::duration<double>(now - start).count();
      in_flight.erase(it);
      p.book(r, checks);
      if (p.wall_s < seconds) send_next();
    });
    if (!ok) break;
  }
  return p;
}

/// Ticks the daemon at kTickHz from its own thread, through the feed
/// connection, timing each tick's round trip.
class Feed {
 public:
  Feed(ServeDaemon& daemon, const ZoneTraceSet& trace)
      : thread_([this, &daemon, &trace] { run(daemon, trace); }) {}
  ~Feed() { stop(); }
  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& rtt_us() const { return rtt_us_; }
  const std::string& error() const { return error_; }

 private:
  void run(ServeDaemon& daemon, const ZoneTraceSet& trace) {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kTickHz));
    auto next = Clock::now();
    std::vector<Money> prices(trace.num_zones());
    for (std::size_t i = kSeedSamples; !stop_ && i < kSeedSamples + kTickCapacity; ++i) {
      next += period;
      std::this_thread::sleep_until(next);
      for (std::size_t z = 0; z < prices.size(); ++z)
        prices[z] = trace.zone(z).samples()[i];
      const auto t0 = Clock::now();
      try {
        daemon.feed().tick(prices);
      } catch (const std::exception& e) {
        error_ = e.what();
        return;
      }
      rtt_us_.push_back(seconds_since(t0) * 1e6);
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<double> rtt_us_;
  std::string error_;
  std::thread thread_;  // last: starts after the members it uses exist
};

/// Re-derives every kept answer from scratch on the trace prefix ending at
/// its as_of and requires bit-identity.
void verify(const std::vector<Checked>& checks, const ZoneTraceSet& trace,
            Outcome& out) {
  const std::vector<serve::ModelSpec> specs = model_specs();
  std::vector<char> same(checks.size(), 0);
  parallel_for(0, checks.size(), [&](std::size_t i) {
    const std::size_t tenant = checks[i].id % kTenants;
    const ZoneTraceSet prefix =
        trace.window(trace.start(), checks[i].advice.as_of + trace.step());
    same[i] = serve::advise_offline(specs[tenant % kModels], prefix,
                                    tenant_job(tenant)) == checks[i].advice;
  });
  std::uint64_t bad = 0;
  for (char s : same) bad += s ? 0 : 1;
  out.attempted += checks.size();
  out.samples["offline_checks"] += static_cast<double>(checks.size());
  if (bad > 0)
    out.fail("serve: " + std::to_string(bad) + " answers differ from advise_offline",
             bad);
}

/// Daemon-side numbers every serve report shares.
void stop_daemon(ServeDaemon& daemon, Outcome& out) {
  const int rc = daemon.stop();
  if (rc != 130) out.fail("serve: daemon exited with " + std::to_string(rc));
}

void set_stats_metrics(const serve::StatsReplyMsg& s, Outcome& out) {
  out.set("serve.mean_batch",
          s.batches > 0 ? static_cast<double>(s.advises) / static_cast<double>(s.batches)
                        : 0.0,
          "count");
  out.set("serve.daemon_advise_p99_us", s.advise_p99_ns / 1e3, "us");
  if (s.shed_stale + s.shed_rejected > 0)
    out.fail("serve: daemon shed " + std::to_string(s.shed_stale + s.shed_rejected) +
             " requests");
}

void warm_up(Tenant& tenant, std::uint64_t& next_id, std::vector<Checked>& checks,
             Outcome& out) {
  // One request per model: the first advise per spec builds its model.
  Phase w = closed_loop(tenant, next_id, kModels, 0.0, checks);
  w.report("serve warm-up", out);
}

}  // namespace

void serve_probe(const Options& opt, Outcome& out) {
  Span probe("serve_probe");
  const ZoneTraceSet trace = serve_trace(opt.seed);
  ServeDaemon daemon(opt, trace, "probe-serve");
  Tenant tenant(daemon.endpoint(), daemon.hashes());
  std::uint64_t next_id = 1;
  std::vector<Checked> checks;
  warm_up(tenant, next_id, checks, out);
  const Phase rtt = closed_loop(tenant, next_id, 1, 0.3, checks);
  rtt.report("serve probe", out);
  out.set("serve.rtt_closed_us", median(rtt.latency_ms) * 1e3, "us");

  std::vector<double> tick_us;
  std::vector<Money> prices(trace.num_zones());
  for (std::size_t i = kSeedSamples; i < kSeedSamples + 20; ++i) {
    for (std::size_t z = 0; z < prices.size(); ++z) prices[z] = trace.zone(z).samples()[i];
    const auto t0 = Clock::now();
    daemon.feed().tick(prices);
    tick_us.push_back(seconds_since(t0) * 1e6);
  }
  out.set("serve.tick_rtt_us", median(tick_us), "us");

  const Phase burst = closed_loop(tenant, next_id, 64, 0.5, checks);
  burst.report("serve probe burst", out);
  set_stats_metrics(daemon.feed().stats(), out);
  stop_daemon(daemon, out);
  verify(checks, trace, out);
}

Outcome run_serve_mixed(const Options& opt) {
  Outcome out;
  std::vector<double> generate_ms;
  ZoneTraceSet trace;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    trace = serve_trace(opt.seed);
    generate_ms.push_back(seconds_since(t0) * 1e3);
  }

  // Set-up: start the daemon, seed its trace, register the models.
  std::unique_ptr<ServeDaemon> daemon;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opt.trace ? 1 : 5); ++rep) {
    if (daemon) stop_daemon(*daemon, out);
    const auto t0 = Clock::now();
    daemon = std::make_unique<ServeDaemon>(opt, trace, "serve" + std::to_string(rep));
    setup_s.push_back(seconds_since(t0));
  }

  Tenant tenant(daemon->endpoint(), daemon->hashes());
  std::uint64_t next_id = 1;
  std::vector<Checked> checks;
  warm_up(tenant, next_id, checks, out);

  if (opt.trace) {
    const Phase rtt = closed_loop(tenant, next_id, 1, 0.3, checks);
    rtt.report("serve unloaded", out);
    Feed feed(*daemon, trace);
    const Phase plain = open_loop(tenant, next_id, kOpenRate, 3.0, false, checks);
    const Phase traced = open_loop(tenant, next_id, kOpenRate, 3.0, true, checks);
    feed.stop();
    plain.report("serve open loop", out);
    traced.report("serve traced open loop", out);
    if (!feed.error().empty()) out.fail("serve: tick failed: " + feed.error());
    set_stats_metrics(daemon->feed().stats(), out);
    stop_daemon(*daemon, out);
    verify(checks, trace, out);

    out.set("serve.rtt_closed_us", median(rtt.latency_ms) * 1e3, "us");
    out.set("serve.tick_rtt_us", median(feed.rtt_us()), "us");
    out.set("trace.generate_ms", median(generate_ms), "ms");
    out.set("parallel.busy_frac",
            cpu_seconds(daemon->usage()) / (daemon->wall_s() * 3.0), "ratio");
    out.set("trace_overhead_ratio", median(traced.latency_ms) / median(plain.latency_ms),
            "ratio");
    layer_probes(opt, probe_market(opt.seed), out);
    fabric_probe(opt, out);
    ensemble_probe(opt, out);
    return out;
  }

  Feed feed(*daemon, trace);
  const Phase open = open_loop(tenant, next_id, kOpenRate, 0.65 * opt.seconds, false, checks);
  const Phase capacity = closed_loop(tenant, next_id, kWindow, 0.35 * opt.seconds, checks);
  feed.stop();
  open.report("serve open loop", out);
  capacity.report("serve closed loop", out);
  if (!feed.error().empty()) out.fail("serve: tick failed: " + feed.error());
  const serve::StatsReplyMsg stats = daemon->feed().stats();
  if (stats.shed_stale + stats.shed_rejected > 0)
    out.fail("serve: daemon shed requests");
  stop_daemon(*daemon, out);
  verify(checks, trace, out);

  out.samples["open_loop_answers"] = static_cast<double>(open.latency_ms.size());
  out.samples["closed_loop_answers"] = static_cast<double>(capacity.answered);
  out.samples["ticks"] = static_cast<double>(feed.rtt_us().size());
  out.samples["generator_late_p99_us"] = quantile(open.late_us, 0.99);
  // The tail is kept as provenance, not as a bounded metric: a slow spell
  // of the shared host multiplies it several times over for a whole run.
  out.samples["latency_p95_ms"] = quantile(open.latency_ms, 0.95);
  out.samples["latency_p99_ms"] = quantile(open.latency_ms, 0.99);
  out.set("setup_s", median(setup_s), "s");
  out.set("throughput", static_cast<double>(capacity.answered) / capacity.wall_s, "1/s");
  out.set("latency_p50_ms", quantile(open.latency_ms, 0.50), "ms");
  out.set("peak_rss_mb", peak_rss_mb(daemon->usage()), "MB");
  return out;
}

}  // namespace bench
