#include "serve/server.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/batcher.hpp"
#include "common/check.hpp"
#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/transport/framed_loop.hpp"
#include "serve/advisor.hpp"
#include "serve/proto.hpp"
#include "serve/registry.hpp"
#include "serve/shed.hpp"
#include "serve/tick_store.hpp"
#include "stats/latency.hpp"

namespace redspot::serve {

namespace {

using Clock = std::chrono::steady_clock;
using ConnId = transport::FramedLoop::ConnId;

/// Sweep rounds the SIGTERM drain spends reading what clients wrote
/// before the signal.
constexpr int kDrainRounds = 100;

/// One queued advise request. request_id 0 with conn 0 is a tick-driven
/// slide: it advances the shared model so the next real request starts
/// from a pre-slid state, and produces no response.
struct AdviseWork {
  ConnId conn = 0;
  std::uint64_t request_id = 0;
  JobParams job;
  Clock::time_point submitted;
};

class Server {
 public:
  explicit Server(const ServeOptions& options)
      : opt_(options),
        pool_(options.threads),
        registry_(options.registry_bytes),
        shed_(options.shed_queue_limit),
        batcher_(pool_, [this](const std::uint64_t& key,
                               std::vector<AdviseWork>&& batch) {
          run_batch(key, std::move(batch));
        }) {}

  int run() {
    if (opt_.install_signal_handlers) install_interrupt_handlers();
    const auto ep = transport::parse_endpoint(opt_.endpoint);
    if (!ep)
      throw std::runtime_error("redspot-serve: bad endpoint: " +
                               opt_.endpoint);
    loop_.emplace(*ep, transport::FramedLoop::Handlers{
                           .on_frame = [this](ConnId c, std::string_view p) {
                             dispatch(c, p);
                           },
                           .on_open = nullptr,
                           .on_close = nullptr});
    const std::string& bound = loop_->local_endpoint();
    LOG_INFO << "redspot-serve: listening on " << bound;
    if (opt_.on_bound) opt_.on_bound(bound);

    while (!interrupt_requested()) loop_->poll_once(/*timeout_ms=*/200);
    return shutdown_drain();
  }

 private:
  // --- message dispatch -----------------------------------------------------

  void dispatch(ConnId c, std::string_view payload) {
    const std::optional<MsgType> type = msg_type(payload);
    if (!type) {
      send_error(c, 0, "unknown message type");
      return;
    }
    switch (*type) {
      case MsgType::kTraceInit:
        on_trace_init(c, payload);
        return;
      case MsgType::kTick:
        on_tick(c, payload);
        return;
      case MsgType::kRegister:
        on_register(c, payload);
        return;
      case MsgType::kAdvise:
        on_advise(c, payload);
        return;
      case MsgType::kStats:
        send_msg(c, encode_stats_reply(collect_stats()));
        return;
      default:
        send_error(c, 0, "unexpected message");
        return;
    }
  }

  void on_trace_init(ConnId c, std::string_view payload) {
    const auto m = decode_trace_init(payload);
    if (!m) {
      loop_->close(c);
      return;
    }
    if (m->protocol != kProtocolVersion) {
      send_error(c, 0, "protocol version mismatch");
      return;
    }
    if (store_) {
      send_error(c, 0, "trace already initialized");
      return;
    }
    try {
      std::vector<PriceSeries> series;
      series.reserve(m->samples.size());
      for (const std::vector<Money>& zone : m->samples)
        series.emplace_back(m->start, m->step, zone);
      ZoneTraceSet seed(m->zone_names, std::move(series));
      store_.emplace(std::move(seed),
                     static_cast<std::size_t>(m->capacity_samples));
    } catch (const std::exception& e) {
      send_error(c, 0, std::string("bad trace init: ") + e.what());
      return;
    }
    send_msg(c, encode_trace_ok(TraceOkMsg{store_->end_time()}));
  }

  void on_tick(ConnId c, std::string_view payload) {
    const auto m = decode_tick(payload);
    if (!m) {
      loop_->close(c);
      return;
    }
    if (!store_) {
      send_error(c, 0, "tick before trace init");
      return;
    }
    if (m->prices.size() != store_->num_zones()) {
      send_error(c, 0, "tick zone-count mismatch");
      return;
    }
    if (store_->size() >= store_->capacity_samples()) {
      send_error(c, 0, "tick capacity exhausted");
      return;
    }
    const SimTime end = store_->append(m->prices);
    send_msg(c, encode_tick_ack(TickAckMsg{end}));
    // Eager tick-driven slide: every registered model advances under its
    // batcher key, so advise requests land on pre-slid state. Coalesces
    // with (and orders before) any queued advises, by FIFO.
    std::unique_lock lock(specs_mutex_);
    for (const auto& [hash, spec] : specs_)
      batcher_.submit(hash, AdviseWork{0, 0, JobParams{}, Clock::now()});
  }

  void on_register(ConnId c, std::string_view payload) {
    const auto m = decode_register(payload);
    if (!m) {
      loop_->close(c);
      return;
    }
    const ModelSpec& spec = m->spec;
    // Every advise enumerates 2^max_zones - 1 zone subsets; the bound is
    // Adaptive's own.
    if (spec.history_span <= 0 || spec.bid_grid.empty() ||
        spec.max_states < 2 || spec.max_zones == 0 ||
        spec.max_zones > AdaptiveStrategy::kMaxZones || spec.policies.empty()) {
      send_error(c, 0, "invalid model spec");
      return;
    }
    for (PolicyKind p : spec.policies) {
      if (p != PolicyKind::kPeriodic && p != PolicyKind::kMarkovDaly) {
        send_error(c, 0, "spec policies must be periodic/markov-daly");
        return;
      }
    }
    const std::uint64_t hash = spec.spec_hash();
    {
      std::unique_lock lock(specs_mutex_);
      specs_.emplace(hash, spec);
    }
    send_msg(c, encode_register_ok(RegisterOkMsg{hash}));
  }

  void on_advise(ConnId c, std::string_view payload) {
    const auto m = decode_advise(payload);
    if (!m) {
      loop_->close(c);
      return;
    }
    {
      std::unique_lock lock(specs_mutex_);
      if (!specs_.contains(m->spec_hash)) {
        lock.unlock();
        send_error(c, m->request_id, "unknown spec hash (register first)");
        return;
      }
    }
    if (!store_ || store_->size() < 2) {
      send_error(c, m->request_id, "insufficient price history");
      return;
    }
    // SLO gate: over the queue bound, answer from the last-good snapshot
    // (staleness marker set) or reject — never queue unboundedly.
    const ShedDecision shed =
        shed_.admit(m->spec_hash, m->job, batcher_.pending());
    switch (shed.kind) {
      case ShedDecision::Kind::kAccept:
        batcher_.submit(m->spec_hash,
                        AdviseWork{c, m->request_id, m->job, Clock::now()});
        return;
      case ShedDecision::Kind::kServeStale:
        send_msg(c, encode_advice(
                        AdviceMsg{m->request_id, shed.advice, /*stale=*/true}));
        return;
      case ShedDecision::Kind::kReject:
        send_error(c, m->request_id, "overloaded");
        return;
    }
  }

  // --- batch execution (pool threads) ---------------------------------------

  void run_batch(std::uint64_t key, std::vector<AdviseWork>&& batch) {
    ModelSpec spec;
    {
      std::unique_lock lock(specs_mutex_);
      const auto it = specs_.find(key);
      REDSPOT_CHECK(it != specs_.end());  // submit() verified registration
      spec = it->second;
    }
    store_->with_read([&](const ZoneTraceSet& traces) {
      // ONE model resolution for the whole batch — the coalescing payoff.
      const std::shared_ptr<ModelEntry> entry =
          registry_.acquire(spec, traces.num_zones());
      for (AdviseWork& work : batch) {
        if (work.conn == 0) {
          // Tick-driven slide: advance the shared state, no response. The
          // job parameters are irrelevant to the slide (the window is),
          // and the computed advice is discarded.
          if (traces.zone(0).size() >= 2)
            slide_entry(*entry, traces);
          continue;
        }
        try {
          const Advice advice = compute_advice(*entry, traces, work.job);
          // Remember the fresh answer before sending: if the daemon is
          // overloaded one poll cycle later, this exact advice is what a
          // shed request for the same (spec, job) receives.
          shed_.record(key, work.job, advice);
          send_msg(work.conn,
                   encode_advice(AdviceMsg{work.request_id, advice}));
        } catch (const std::exception& e) {
          send_error(work.conn, work.request_id,
                     std::string("advise failed: ") + e.what());
        }
        latency_.record(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - work.submitted)
                .count()));
      }
    });
  }

  /// Advances the entry's history window and per-zone models to the
  /// current trace end without computing advice (the tick path). The
  /// window is compute_advice's (slide_history), so a later advise finds
  /// the state already slid; observe() is idempotent, so re-observing
  /// there stays bit-identical. Requires >= 2 samples (caller checks).
  static void slide_entry(ModelEntry& entry, const ZoneTraceSet& traces) {
    const auto [from, now] = slide_history(entry, traces);
    for (std::size_t z = 0; z < traces.num_zones(); ++z)
      entry.zone_models[z].observe(traces.zone(z).view(from, now));
  }

  // --- responses ------------------------------------------------------------

  void send_msg(ConnId c, const std::string& payload) { loop_->post(c, payload); }

  void send_error(ConnId c, std::uint64_t request_id,
                  std::string message) {
    send_msg(c, encode_error(ErrorMsg{request_id, std::move(message)}));
  }

  StatsReplyMsg collect_stats() {
    const BatcherStats b = batcher_.stats();
    const LruStats r = registry_.stats();
    const ShedStats s = shed_.stats();
    StatsReplyMsg m;
    m.ticks = store_ ? store_->ticks() : 0;
    m.advises = latency_.count();
    m.batches = b.batches;
    m.max_batch = b.max_batch;
    m.models = r.entries;
    m.model_bytes = r.bytes;
    m.evictions = r.evictions;
    m.shed_stale = s.shed_stale;
    m.shed_rejected = s.shed_rejected;
    m.queue_peak = s.queue_peak;
    m.advise_p50_ns = latency_.p50_ns();
    m.advise_p99_ns = latency_.p99_ns();
    return m;
  }

  // --- graceful shutdown ----------------------------------------------------

  /// Answers everything the clients managed to write before the signal,
  /// then drains, flushes the replies and reports. Bounded sweep: each
  /// round services every readable connection without waiting; when a
  /// round finds nothing readable, the kernel buffers are empty.
  int shutdown_drain() {
    loop_->stop_accepting();
    for (int round = 0; round < kDrainRounds && loop_->poll_once(0) > 0;
         ++round) {
    }
    batcher_.drain();
    loop_->close_all();
    const StatsReplyMsg s = collect_stats();
    if (opt_.print_stats) {
      std::printf(
          "redspot-serve: drained — ticks=%llu advises=%llu batches=%llu "
          "max_batch=%llu models=%llu model_mb=%.1f p50_us=%.1f p99_us=%.1f\n",
          static_cast<unsigned long long>(s.ticks),
          static_cast<unsigned long long>(s.advises),
          static_cast<unsigned long long>(s.batches),
          static_cast<unsigned long long>(s.max_batch),
          static_cast<unsigned long long>(s.models),
          static_cast<double>(s.model_bytes) / (1024.0 * 1024.0),
          s.advise_p50_ns / 1e3, s.advise_p99_ns / 1e3);
      if (s.shed_stale > 0 || s.shed_rejected > 0) {
        std::printf(
            "redspot-serve: shed — stale=%llu rejected=%llu queue_peak=%llu\n",
            static_cast<unsigned long long>(s.shed_stale),
            static_cast<unsigned long long>(s.shed_rejected),
            static_cast<unsigned long long>(s.queue_peak));
      }
      if (loop_->overflow_disconnects() > 0) {
        std::printf("redspot-serve: overflow — disconnected=%llu\n",
                    static_cast<unsigned long long>(
                        loop_->overflow_disconnects()));
      }
      std::fflush(stdout);
    }
    return 130;
  }

  ServeOptions opt_;
  /// Emplaced by run(); pool threads post replies to it.
  std::optional<transport::FramedLoop> loop_;

  ThreadPool pool_;
  ModelRegistry registry_;
  std::optional<TickStore> store_;
  LatencyRecorder latency_;
  ShedGate shed_;

  std::mutex specs_mutex_;
  std::unordered_map<std::uint64_t, ModelSpec> specs_;

  Batcher<std::uint64_t, AdviseWork> batcher_;
};

}  // namespace

int run_server(const ServeOptions& options) {
  try {
    Server server(options);
    return server.run();
  } catch (const std::exception& e) {
    LOG_WARN << "redspot-serve: fatal: " << e.what();
    return 1;
  }
}

}  // namespace redspot::serve
