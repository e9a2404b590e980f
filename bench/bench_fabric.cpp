// Fabric dispatch-overhead microbenchmark with a machine-readable report
// for the CI tolerance gate (same conventions as bench_event_core; see
// tools/bench_report.hpp).
//
// Four suites pin what the distributed fabric costs over the in-process
// path it must stay bit-identical to, and what a worker's shard costs:
//
//   1. dispatch       — a one-replication-per-shard ensemble (compute is
//                       negligible) run through a real coordinator plus
//                       one forked worker over a unix socket and over TCP
//                       loopback, vs the same spec through
//                       parallel_for_shards in-process. The difference,
//                       spread over the shard count, is the full per-shard
//                       fabric tax: lease grant, partial frame, CRC, ack,
//                       poll loop. Gated by hard ceilings on
//                       fabric_dispatch_overhead_ratio and
//                       tcp_fabric_dispatch_overhead_ratio.
//   2. codec          — encode+decode of a lease/partial/ack exchange per
//                       shard, isolating serialization from the socket.
//   3. worker shard   — one 4-replication shard (the fabric-tcp benchmark
//                       shard) computed serially and through a
//                       hardware-sized pool, as a worker does, interleaved
//                       four pairs per rep: worker_shard_speedup is the
//                       median of the per-rep ratios, gated by a floor. It
//                       scales with the core count, so only the floor is
//                       pinned.
//   4. trace span     — the traces of one such shard's replications
//                       synthesized as the whole trimmed window and as the
//                       span each experiment reads (experiment_traces),
//                       interleaved per rep: shard_trace_span_speedup is
//                       the median of the per-rep ratios, gated by a floor.
//                       Then the window's last step alone (all skip pass)
//                       against a loop of the raw next_u64 draws it makes:
//                       trace_skip_draw_ratio, gated by a ceiling.
//
// Usage: bench_fabric [--quick] [--out report.json]
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "app/ensemble_cli.hpp"
#include "bench_report.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "core/experiment.hpp"
#include "ensemble/runner.hpp"
#include "ensemble/seeder.hpp"
#include "ensemble/shard_exec.hpp"
#include "exp/scenario.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "trace/synthetic.hpp"

namespace redspot {

// External linkage defeats dead-code elimination of the measured work.
std::int64_t g_sink = 0;

namespace {

using Clock = std::chrono::steady_clock;

/// Wall time of one call of `fn`, in ns.
template <typename F>
double run_ns(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

double median(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

/// Median over `reps` timing runs of one call each, in ns.
template <typename F>
double median_run_ns(int reps, F&& fn) {
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) ns.push_back(run_ns(fn));
  return median(std::move(ns));
}

/// One-replication-per-shard spec: compute cost per dispatch is one
/// simulation, so fabric-vs-inprocess deltas are dominated by dispatch.
EnsembleSpec dispatch_spec(std::size_t shards) {
  EnsembleCliArgs args;
  args.policy = "periodic";
  args.replications = shards;
  args.shards = shards;
  args.no_cache = true;
  return make_ensemble_spec(args);
}

/// Runs the spec through a real coordinator with one forked worker over
/// `endpoint` (unix path or tcp:HOST:0 for an ephemeral loopback port).
/// Returns the coordinator-side wall time in ns.
double fabric_run_ns(const EnsembleSpec& spec, const std::string& endpoint) {
  fabric::FabricOptions options;
  options.endpoint = endpoint;
  // Generous budgets: this benchmark measures throughput, not recovery.
  options.lease.lease_duration_ms = 120'000;
  options.lease.heartbeat_timeout_ms = 60'000;
  options.fallback_wait_ms = 60'000;
  // One replication per shard: the serial loop, as in-process.
  options.threads = 1;

  // The constructor binds the listener, so forking right after can never
  // race the bind — connect retries would otherwise pollute the dispatch
  // figure. The worker dials the *resolved* endpoint (tcp:HOST:0 becomes
  // the kernel-assigned port).
  fabric::Coordinator coordinator(spec, options, /*journal=*/nullptr);
  options.endpoint = coordinator.endpoint();
  const pid_t child = ::fork();
  REDSPOT_CHECK_MSG(child >= 0, "fork failed");
  if (child == 0) {
    const int rc = fabric::run_worker(spec, options, fabric::ChaosPlan{});
    ::_exit(rc);
  }
  fabric::CoordinatorReport report;
  const double ns = run_ns([&] { report = coordinator.run(); });
  REDSPOT_CHECK_MSG(!report.used_fallback, "worker never joined the fleet");
  g_sink += static_cast<std::int64_t>(report.shards_from_fleet);

  int status = 0;
  REDSPOT_CHECK_MSG(::waitpid(child, &status, 0) == child, "waitpid failed");
  REDSPOT_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                    "worker exited abnormally");
  return ns;
}

}  // namespace
}  // namespace redspot

int main(int argc, char** argv) {
  using namespace redspot;

  bool quick = false;
  std::string out_path = "BENCH_fabric.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_fabric [--quick] [--out report.json]\n");
      return 2;
    }
  }

  benchreport::Report report;
  report.schema = "redspot-fabric-v1";
  report.set("quick", quick ? 1 : 0);
  const int reps = quick ? 3 : 5;
  const std::size_t shards = quick ? 24 : 64;
  const std::string socket_path =
      "/tmp/bench_fabric_" + std::to_string(::getpid()) + ".sock";

  // --- 1. dispatch: coordinator + forked worker vs in-process ---------------
  // Run once per transport: the unix socket is the historical baseline,
  // the TCP loopback shows what the off-box transport costs on top. The
  // three are interleaved per rep (inproc, unix, tcp, repeat) so their
  // medians share host conditions: host drift must not skew the ratios.
  {
    const EnsembleSpec spec = dispatch_spec(shards);

    ThreadPool pool(1);  // the fabric side computes on one worker too
    std::vector<double> inproc_runs, unix_runs, tcp_runs;
    for (int r = 0; r < reps; ++r) {
      inproc_runs.push_back(run_ns([&] {
        EnsembleRunner runner(spec);
        g_sink += static_cast<std::int64_t>(runner.run(pool).configs.size());
      }));
      // fabric_run_ns times coordinator.run() only, so fork/exec setup of
      // the worker process is excluded from the dispatch figure.
      unix_runs.push_back(fabric_run_ns(spec, socket_path));
      tcp_runs.push_back(fabric_run_ns(spec, "tcp:127.0.0.1:0"));
    }
    const double inproc_ns = median(inproc_runs);
    report.set("inproc_run_ms", inproc_ns / 1e6);

    const double fabric_ns = median(unix_runs);
    report.set("fabric_run_ms", fabric_ns / 1e6);
    report.set("fabric_dispatch_overhead_ratio", fabric_ns / inproc_ns);
    report.set("fabric_dispatch_us",
               (fabric_ns - inproc_ns) / static_cast<double>(shards) / 1e3);

    const double tcp_ns = median(tcp_runs);
    report.set("tcp_fabric_run_ms", tcp_ns / 1e6);
    report.set("tcp_fabric_dispatch_overhead_ratio", tcp_ns / inproc_ns);
    report.set("tcp_fabric_dispatch_us",
               (tcp_ns - inproc_ns) / static_cast<double>(shards) / 1e3);
  }

  // --- 2. codec: the per-shard wire round trip without the socket -----------
  {
    const int n = quick ? 20000 : 100000;
    const std::string record(512, 'r');  // a typical shard-record size
    const double codec_ns = median_run_ns(reps, [&] {
      for (int i = 0; i < n; ++i) {
        const auto lease = fabric::decode_lease(fabric::encode_lease(
            {static_cast<std::uint64_t>(i), 0, 1, 1, 10'000}));
        const auto partial = fabric::decode_partial(fabric::encode_partial(
            {lease->lease_id, 0, record}));
        const auto ack =
            fabric::decode_ack(fabric::encode_ack({partial->shard, false}));
        g_sink += static_cast<std::int64_t>(ack->shard);
      }
    });
    report.set("wire_roundtrip_ns", codec_ns / n);
  }

  // --- 3. worker shard: serial vs pooled compute of one leased shard --------
  {
    EnsembleCliArgs args;
    args.policy = "periodic";
    args.zones = {0, 1, 2};
    args.replications = 4;
    args.shards = 1;
    args.no_cache = true;
    const EnsembleSpec spec = make_ensemble_spec(args);
    const ShardExecutor exec(spec);
    ThreadPool pool(0);
    const std::string serial = exec.compute(0);
    REDSPOT_CHECK_MSG(exec.compute(0, {}, &pool) == serial,
                      "pooled shard differs from the serial one");
    // The shard takes a few ms, so one pool wake-up or host hiccup can
    // swing a single pair: each ratio sums several interleaved pairs.
    const int pairs = 4;
    std::vector<double> ratios;
    for (int r = 0; r < (quick ? 9 : 15); ++r) {
      double serial_ns = 0.0;
      double pooled_ns = 0.0;
      for (int k = 0; k < pairs; ++k) {
        serial_ns += run_ns([&] {
          g_sink += static_cast<std::int64_t>(exec.compute(0).size());
        });
        pooled_ns += run_ns([&] {
          g_sink +=
              static_cast<std::int64_t>(exec.compute(0, {}, &pool).size());
        });
      }
      ratios.push_back(serial_ns / pooled_ns);
    }
    report.set("worker_shard_threads", static_cast<double>(pool.size()));
    report.set("worker_shard_speedup", median(std::move(ratios)));
  }

  // --- 4. trace span: a shard's traces, whole window vs experiment span -----
  {
    const EnsembleSpec spec = make_ensemble_spec(EnsembleCliArgs{});
    const std::vector<SimTime> starts =
        Scenario{spec.window, spec.slack_fraction, spec.checkpoint_cost,
                 spec.starts_grid}
            .starts();
    const SyntheticTraceSpec window =
        trimmed_spec(paper_trace_spec(0), window_end(spec.window));
    const ReplicationSeeder seeder(spec.seed);
    const auto replication = [&](std::size_t r) {
      SyntheticTraceSpec trace = window;
      trace.seed = seeder.seed(r, SeedDomain::kTrace);
      return std::make_pair(
          trace, Experiment::paper(starts[r % starts.size()],
                                   spec.slack_fraction, spec.checkpoint_cost));
    };
    {
      const auto [trace, experiment] = replication(0);
      const ZoneTraceSet full = generate_traces(trace);
      const ZoneTraceSet span = experiment_traces(trace, experiment);
      const ZoneTraceSet slice = full.window(span.start(), span.end());
      for (std::size_t z = 0; z < full.num_zones(); ++z) {
        const auto a = span.zone(z).samples();
        const auto b = slice.zone(z).samples();
        REDSPOT_CHECK_MSG(std::equal(a.begin(), a.end(), b.begin(), b.end()),
                          "the span differs from the full trace's slice");
      }
    }
    // Each rep synthesizes the next 4-replication shard both ways.
    const std::size_t per_shard = 4;
    std::vector<double> ratios;
    for (int r = 0; r < (quick ? 9 : 15); ++r) {
      const std::size_t lo = static_cast<std::size_t>(r) * per_shard;
      const double full_ns = run_ns([&] {
        for (std::size_t k = lo; k < lo + per_shard; ++k)
          g_sink += generate_traces(replication(k).first).end();
      });
      const double span_ns = run_ns([&] {
        for (std::size_t k = lo; k < lo + per_shard; ++k) {
          const auto [trace, experiment] = replication(k);
          g_sink += experiment_traces(trace, experiment).end();
        }
      });
      ratios.push_back(full_ns / span_ns);
    }
    report.set("shard_trace_span_speedup", median(std::move(ratios)));

    // The skip pass at generator speed: the window's last step alone is
    // all skip pass, timed against a loop of the raw draws it makes (four
    // per zone-step and the shared stream's two per step), interleaved.
    const SimTime end = window_end(spec.window);
    const auto steps = static_cast<std::size_t>(end / window.step);
    const std::size_t draws = steps * (4 * window.num_zones + 2);
    std::vector<double> skip_ratios;
    for (int r = 0; r < (quick ? 9 : 15); ++r) {
      const std::size_t lo = static_cast<std::size_t>(r) * per_shard;
      const double skip_ns = run_ns([&] {
        for (std::size_t k = lo; k < lo + per_shard; ++k)
          g_sink += generate_traces(replication(k).first, end - window.step,
                                    end)
                        .end();
      });
      const double draw_ns = run_ns([&] {
        for (std::size_t k = lo; k < lo + per_shard; ++k) {
          Rng rng(seeder.seed(k, SeedDomain::kTrace));
          std::uint64_t x = 0;
          for (std::size_t i = 0; i < draws; ++i) x ^= rng.next_u64();
          g_sink += static_cast<std::int64_t>(x);
        }
      });
      skip_ratios.push_back(skip_ns / draw_ns);
    }
    report.set("trace_skip_draw_ratio", median(std::move(skip_ratios)));
  }

  benchreport::write_report(report, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  for (const auto& [name, value] : report.metrics) {
    std::printf("  %-32s %.4g\n", name.c_str(), value);
  }
  return 0;
}
