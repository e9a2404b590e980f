// Layer probes: each per-layer metric that is a property of one layer's
// public functions, timed on the workload's own market. Every traced run
// takes them, so each workload reports every layer on its own inputs.
#include <poll.h>

#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/transport/transport.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/adaptive/history_stats.hpp"
#include "core/batch/batched_engine.hpp"
#include "core/engine.hpp"
#include "core/events/observer.hpp"
#include "exp/scenario.hpp"
#include "fabric/wire.hpp"
#include "fault/run_validator.hpp"
#include "journal/journal.hpp"
#include "journal/run_record.hpp"
#include "markov/incremental.hpp"
#include "markov/uptime.hpp"
#include "serve/advisor.hpp"
#include "serve/proto.hpp"
#include "trace/synthetic.hpp"

using namespace redspot;

namespace bench {

std::string run_bytes(const RunResult& r) { return encode_sweep_chunk(0, 0, r); }

SpotMarket probe_market(std::uint64_t seed) {
  return SpotMarket(generate_traces(trimmed_spec(
                        paper_trace_spec(seed),
                        window_end(VolatilityWindow::kHigh))),
                    cc2_instance(), QueueDelayModel());
}

namespace {

constexpr PolicyKind kFixedPolicies[] = {
    PolicyKind::kPeriodic, PolicyKind::kMarkovDaly, PolicyKind::kRisingEdge,
    PolicyKind::kThreshold};

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Counts what the engine does in a run: calendar events, zone
/// transitions, billing line items and settled checkpoint writes.
class CountingObserver final : public EngineObserver {
 public:
  void on_event(const Event&) override { ++events; }
  void on_transition(SimTime, std::size_t, ZoneState, ZoneState) override {
    ++transitions;
  }
  void on_billing(const LineItem&) override { ++line_items; }
  void on_checkpoint_commit(const CheckpointCommit&) override { ++commits; }

  std::uint64_t events = 0;
  std::uint64_t transitions = 0;
  std::uint64_t line_items = 0;
  std::uint64_t commits = 0;
};

std::string read_frame(transport::Stream& s, FrameBuffer& buf) {
  std::string payload;
  while (buf.next(&payload) != FrameStatus::kOk) {
    if (buf.corrupt() || !s.read_into(buf))
      throw std::runtime_error("transport probe: connection lost");
  }
  return payload;
}

/// Median round trip of a lease -> partial -> ack exchange through the
/// transport layer. The accepting side plays the coordinator: it writes an
/// ack and the next lease back to back, then reads — the pattern a fleet
/// produces once per shard.
double exchange_rtt_us(const std::string& endpoint, std::size_t rounds,
                       const std::string& partial) {
  const auto ep = transport::parse_endpoint(endpoint);
  if (!ep) throw std::runtime_error("transport probe: bad endpoint " + endpoint);
  auto listener = transport::listen(*ep);
  const transport::Endpoint bound = listener->local_endpoint();

  std::thread worker([&bound, rounds, &partial] {
    std::unique_ptr<transport::Stream> s;
    for (int attempt = 0; !s && attempt < 2000; ++attempt) {
      s = transport::connect(bound);
      if (!s) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!s) return;
    FrameBuffer buf;
    try {
      for (std::size_t r = 0; r < rounds; ++r) {
        read_frame(*s, buf);  // lease
        transport::send_frame(*s, partial);
        read_frame(*s, buf);  // ack
      }
    } catch (const std::runtime_error&) {
    }
  });

  std::vector<double> rtt;
  std::exception_ptr error;
  try {
    std::unique_ptr<transport::Stream> conn;
    const auto t0 = Clock::now();
    while (!conn && seconds_since(t0) < 5.0) {
      pollfd pfd{listener->fd(), POLLIN, 0};
      ::poll(&pfd, 1, 10);
      conn = listener->accept();
    }
    if (conn) {
      FrameBuffer buf;
      const std::string lease =
          fabric::encode_lease(fabric::LeaseMsg{1, 0, 1, 1, 10000});
      const std::string ack = fabric::encode_ack(fabric::AckMsg{0, false});
      for (std::size_t r = 0; r < rounds; ++r) {
        const auto s0 = Clock::now();
        transport::send_frame(*conn, lease);
        read_frame(*conn, buf);
        rtt.push_back(seconds_since(s0) * 1e6);
        transport::send_frame(*conn, ack);
      }
    }
  } catch (...) {
    error = std::current_exception();
  }
  // The connection is closed by now, so a worker still reading sees EOF.
  worker.join();
  if (error) std::rethrow_exception(error);
  if (rtt.empty()) throw std::runtime_error("transport probe: no connection");
  return median(rtt);
}

}  // namespace

void layer_probes(const Options& opt, const SpotMarket& market, Outcome& out) {
  Span probes("probes");
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 80};
  const Money bid = Money::cents(81);
  const std::vector<std::size_t> zones{0, 1, 2};

  // core/batch: index build, then 16 lockstep lanes (4 policies x 4 starts).
  std::vector<double> build_ms;
  std::unique_ptr<batch::BatchedSweepEngine> engine;
  for (int rep = 0; rep < 5; ++rep) {
    Span s("batch.index_build");
    const auto t0 = Clock::now();
    engine = std::make_unique<batch::BatchedSweepEngine>(market);
    build_ms.push_back(ms_since(t0));
  }
  out.set("batch.index_build_ms", median(build_ms), "ms");

  std::vector<batch::BatchConfig> lanes;
  for (std::size_t k = 0; k < 16; ++k)
    lanes.push_back(batch::BatchConfig{scenario.experiment(k * 5),
                                       kFixedPolicies[k % 4], bid, zones, nullptr});
  std::vector<double> lane_ms;
  std::vector<RunResult> batched;
  for (int rep = 0; rep < 3; ++rep) {
    Span s("batch.run");
    const auto t0 = Clock::now();
    batched = engine->run(lanes);
    lane_ms.push_back(ms_since(t0) / static_cast<double>(lanes.size()));
  }
  out.set("batch.lane_run_ms", median(lane_ms), "ms");

  // core: the same lanes through scalar Engine::run, counted by an observer
  // and compared bit-for-bit with the batched results.
  std::vector<double> scalar_ms;
  std::vector<RunResult> scalar;
  CountingObserver counts;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    Span s("core.engine_run");
    FixedStrategy strategy(bid, zones, make_policy(lanes[k].policy));
    Engine e(market, lanes[k].experiment, strategy);
    e.add_observer(&counts);
    const auto t0 = Clock::now();
    scalar.push_back(e.run());
    scalar_ms.push_back(ms_since(t0));
    out.attempted += 1;
    if (run_bytes(scalar.back()) != run_bytes(batched[k]))
      out.fail("probe: batched lane " + std::to_string(k) +
               " differs from scalar Engine::run");
  }
  const double runs = static_cast<double>(lanes.size());
  out.set("core.scalar_run_ms", median(scalar_ms), "ms");
  out.set("core.events_per_run", static_cast<double>(counts.events) / runs, "count");
  out.set("core.transitions_per_run", static_cast<double>(counts.transitions) / runs,
          "count");
  out.set("core.line_items_per_run", static_cast<double>(counts.line_items) / runs,
          "count");
  out.set("core.ckpt_commits_per_run", static_cast<double>(counts.commits) / runs,
          "count");

  std::vector<double> adaptive_ms;
  for (const std::size_t k : {std::size_t{0}, std::size_t{27}, std::size_t{54}}) {
    Span s("core.adaptive_run");
    AdaptiveStrategy strategy;
    Engine e(market, scenario.experiment(k), strategy);
    const auto t0 = Clock::now();
    const RunResult r = e.run();
    adaptive_ms.push_back(ms_since(t0));
    out.attempted += 1;
    if (!RunValidator(scenario.experiment(k), market.on_demand_rate())
             .audit(r)
             .empty())
      out.fail("probe: adaptive run failed its audit");
  }
  out.set("core.adaptive_run_ms", median(adaptive_ms), "ms");

  // fault: the post-run audit every sweep applies, timed over all 16 runs
  // at once (one audit is well under a microsecond).
  {
    Span s("fault.audit");
    std::vector<RunValidator> validators;
    for (const batch::BatchConfig& lane : lanes)
      validators.emplace_back(lane.experiment, market.on_demand_rate());
    std::vector<double> audit_us;
    std::size_t violations = 0;
    for (int rep = 0; rep < 50; ++rep) {
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < scalar.size(); ++k)
        violations += validators[k].audit(scalar[k]).size();
      audit_us.push_back(seconds_since(t0) * 1e6 / runs);
    }
    out.set("fault.audit_us", median(audit_us), "us");
    if (violations > 0) out.fail("probe: scalar runs failed their audit");
  }

  // markov and core/adaptive: slide 2-day windows one price step at a time
  // through the high-volatility month, as policies do between decisions.
  {
    const ZoneTraceSet& traces = market.traces();
    const Duration step = traces.step();
    const Duration span = 2 * kDay;
    const SimTime from0 = window_start(VolatilityWindow::kHigh);
    constexpr std::size_t kSlides = 2000;

    Span s("markov.observe");
    IncrementalMarkovModel model(32);
    UptimeScratch scratch;
    double observe_s = 0, uptime_s = 0;
    std::size_t solves = 0;
    std::int64_t sink = 0;
    for (std::size_t i = 0; i < kSlides; ++i) {
      const SimTime from = from0 + static_cast<Duration>(i) * step;
      auto t0 = Clock::now();
      const MarkovModel& m = model.observe(traces.zone(0).view(from, from + span));
      observe_s += seconds_since(t0);
      if (i % 8 == 0) {
        t0 = Clock::now();
        sink += expected_uptime(m, traces.zone(0).at(from + span), bid,
                                kDefaultUptimeCap, scratch);
        uptime_s += seconds_since(t0);
        ++solves;
      }
    }
    out.set("markov.observe_ns", observe_s * 1e9 / kSlides, "ns");
    out.set("markov.uptime_ns", uptime_s * 1e9 / static_cast<double>(solves), "ns");

    HistoryStats hist(traces, from0, from0 + span, paper_bid_grid());
    const auto t0 = Clock::now();
    for (std::size_t i = 1; i <= kSlides; ++i) {
      const SimTime from = from0 + static_cast<Duration>(i) * step;
      hist.advance(traces, from, from + span);
    }
    out.set("adaptive.history_advance_ns", seconds_since(t0) * 1e9 / kSlides, "ns");
    if (sink < 0) out.fail("probe: negative expected up-time");
  }

  // serve: the advise decision on a live, growing trace, as the daemon
  // computes it — the first answer after a tick slides the shared model,
  // the requests after it reuse the slid state. Then the proto codec.
  serve::Advice last_advice;
  {
    Span s("serve.compute_advice");
    const ZoneTraceSet& traces = market.traces();
    const SimTime s0 = window_start(VolatilityWindow::kHigh);
    constexpr std::size_t kSeed = 600, kTicks = 200, kPerTick = 10;
    ZoneTraceSet live = traces.window(
        s0, s0 + static_cast<Duration>(kSeed) * traces.step());
    live.reserve_total(kSeed + kTicks);
    const serve::ModelSpec spec;
    serve::ModelEntry entry(spec);
    serve::JobParams job;
    job.remaining_compute = 6 * kHour;
    std::vector<Money> prices(traces.num_zones());
    double advice_s = 0;
    for (std::size_t i = 0; i < kTicks; ++i) {
      const SimTime t = s0 + static_cast<Duration>(kSeed + i) * traces.step();
      for (std::size_t z = 0; z < prices.size(); ++z) prices[z] = traces.price(z, t);
      live.append_tick(prices);
      job.remaining_time = 12 * kHour;
      last_advice = serve::compute_advice(entry, live, job);  // slides
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < kPerTick; ++k) {
        job.remaining_time = 12 * kHour + static_cast<Duration>(k % 5) * kHour;
        last_advice = serve::compute_advice(entry, live, job);
      }
      advice_s += seconds_since(t0);
    }
    out.set("serve.compute_advice_us", advice_s * 1e6 / (kTicks * kPerTick), "us");
    out.attempted += 1;
    if (!(last_advice == serve::advise_offline(spec, live, job)))
      out.fail("probe: slid advice differs from advise_offline");

    constexpr std::size_t kCodecRounds = 20000;
    const serve::AdviseMsg ask{7, spec.spec_hash(), job};
    const serve::AdviceMsg answer{7, last_advice, false};
    std::size_t ok = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kCodecRounds; ++i) {
      ok += serve::decode_advise(serve::encode_advise(ask)).has_value();
      ok += serve::decode_advice(serve::encode_advice(answer)).has_value();
    }
    out.set("serve.proto_codec_ns", seconds_since(t0) * 1e9 / kCodecRounds, "ns");
    if (ok != 2 * kCodecRounds) out.fail("probe: serve proto round trip failed");
  }

  // fabric wire codec and journal: a shard-sized record (the 16 runs).
  ShardRecordBuilder builder(1, 0, 0, scalar.size(), 1);
  for (const RunResult& r : scalar) builder.add_run(r);
  const std::string record = builder.payload();
  {
    Span s("fabric.wire_codec");
    constexpr std::size_t kRounds = 2000;
    const fabric::PartialMsg partial{1, 0, record};
    std::size_t ok = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kRounds; ++i) {
      const auto d = fabric::decode_partial(fabric::encode_partial(partial));
      ok += d.has_value() && d->record.size() == record.size();
    }
    out.set("fabric.wire_codec_ns", seconds_since(t0) * 1e9 / kRounds, "ns");
    if (ok != kRounds) out.fail("probe: fabric partial round trip failed");
  }
  {
    Span s("journal.append");
    const std::string path = opt.work("probe.journal");
    std::filesystem::remove(path);
    std::vector<double> append_us;
    {
      RunJournal journal(path);
      for (int i = 0; i < 40; ++i) {
        const auto t0 = Clock::now();
        journal.append(record);
        append_us.push_back(seconds_since(t0) * 1e6);
      }
    }
    std::filesystem::remove(path);
    out.set("journal.append_us", median(append_us), "us");
  }

  // common/transport: the fleet's exchange shape over unix and TCP.
  const std::string partial =
      fabric::encode_partial(fabric::PartialMsg{1, 0, record});
  {
    Span s("transport.unix");
    out.set("transport.rtt_us.unix",
            exchange_rtt_us("unix:" + opt.work("probe.sock"), 200, partial), "us");
  }
  {
    Span s("transport.tcp");
    out.set("transport.rtt_us.tcp", exchange_rtt_us("tcp:127.0.0.1:0", 25, partial),
            "us");
  }
}

}  // namespace bench
