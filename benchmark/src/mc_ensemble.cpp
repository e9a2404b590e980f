// mc-ensemble: EnsembleRunner over independent trace realizations — the
// compute-heavy path. Each replication synthesizes its own trace (trace),
// runs Adaptive on the scalar engine (core/adaptive, markov) beside the
// batched fixed policies, and folds into streaming and bootstrap
// summaries (ensemble, stats). The per-sweep index over a long trace that
// dominates paper-sweep barely appears here.
#include "bench.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "ensemble/runner.hpp"
#include "ensemble/seeder.hpp"
#include "ensemble/shard_exec.hpp"
#include "trace/synthetic.hpp"

using namespace redspot;

namespace bench {

namespace {

constexpr std::size_t kThreads = 4;
/// Replications per ensemble job (one per shard); about 0.15-0.2 s on 4
/// cores, so a run holds well over a hundred jobs. Jobs this small cost no
/// more per replication than 64-replication ones.
constexpr std::size_t kReplications = 16;
constexpr std::size_t kShards = 16;
/// Set-ups timed up front and after each measured job.
constexpr std::size_t kSetupReps = 8;

/// Adaptive, the four fixed policies at $0.81 on all three zones (feeding
/// the best-case-redundancy group) and Large-bid, on the high-volatility
/// window at 15% slack.
EnsembleSpec mc_spec(std::uint64_t seed, std::size_t replications,
                     std::size_t shards) {
  EnsembleSpec spec;
  spec.window = VolatilityWindow::kHigh;
  spec.slack_fraction = 0.15;
  spec.checkpoint_cost = 300;
  spec.seed = seed;
  spec.replications = replications;
  spec.num_shards = shards;
  spec.use_cache = false;
  EnsembleConfig adaptive;
  adaptive.kind = EnsembleConfig::Kind::kAdaptive;
  spec.configs.push_back(adaptive);
  MinGroup redundancy{"redundancy (best, N=3)", {}};
  for (PolicyKind p : {PolicyKind::kPeriodic, PolicyKind::kMarkovDaly,
                       PolicyKind::kRisingEdge, PolicyKind::kThreshold}) {
    EnsembleConfig c;
    c.policy = p;
    c.bid = Money::cents(81);
    c.zones = {0, 1, 2};
    redundancy.members.push_back(spec.configs.size());
    spec.configs.push_back(c);
  }
  EnsembleConfig large;
  large.kind = EnsembleConfig::Kind::kLargeBid;
  large.threshold = Money::cents(81);
  large.zones = {0};
  spec.configs.push_back(large);
  spec.min_groups.push_back(redundancy);
  return spec;
}

/// The runner's work rebuilt from ShardExecutor — compute, decode + fold,
/// reduce — with a span around each layer call.
EnsembleResult decomposed_run(const EnsembleSpec& spec, ThreadPool& pool) {
  const ShardExecutor exec(spec);
  std::vector<ShardExecutor::Acc> accs(spec.num_shards, exec.make_acc());
  Span pass("ensemble.decomposed_run");
  const int parent = pass.id();
  parallel_for_shards(pool, spec.replications, spec.num_shards,
                      [&](std::size_t s, std::size_t, std::size_t) {
                        Span shard("ensemble.shard", parent);
                        std::string payload;
                        {
                          Span c("ensemble.shard_compute");
                          payload = exec.compute(s);
                        }
                        Span f("ensemble.fold");
                        const auto rec = decode_ensemble_shard(payload);
                        REDSPOT_CHECK_MSG(rec && exec.matches(*rec),
                                          "shard record failed to decode");
                        exec.fold(*rec, accs[s]);
                      });
  Span r("ensemble.reduce");
  return exec.reduce(std::move(accs));
}

void set_decomposition_metrics(Outcome& out) {
  const Tracer& t = Tracer::global();
  out.set("ensemble.shard_compute_ms", median(t.durations_ms("ensemble.shard_compute")),
          "ms");
  out.set("ensemble.fold_ms", median(t.durations_ms("ensemble.fold")), "ms");
  out.set("ensemble.reduce_ms", median(t.durations_ms("ensemble.reduce")), "ms");
}

}  // namespace

double replication_generate_ms(std::uint64_t seed) {
  const SyntheticTraceSpec base =
      trimmed_spec(paper_trace_spec(0), window_end(VolatilityWindow::kHigh));
  const ReplicationSeeder seeder(seed);
  std::vector<double> generate_ms;
  for (std::uint64_t r = 0; r < 8; ++r) {
    Span s("trace.generate");
    SyntheticTraceSpec trace_spec = base;
    trace_spec.seed = seeder.seed(r, SeedDomain::kTrace);
    const auto t0 = Clock::now();
    const ZoneTraceSet traces = generate_traces(trace_spec);
    generate_ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(generate_ms);
}

void ensemble_probe(const Options& opt, Outcome& out) {
  Span probe("ensemble_probe");
  const EnsembleSpec spec = mc_spec(opt.seed, 80, 16);
  ThreadPool pool(kThreads);
  const std::string direct = EnsembleRunner(spec).run(pool).table("probe");
  out.attempted += spec.replications;
  if (decomposed_run(spec, pool).table("probe") != direct)
    out.fail("ensemble probe: decomposed run differs from EnsembleRunner",
             spec.replications);
  set_decomposition_metrics(out);
}

Outcome run_mc_ensemble(const Options& opt) {
  Outcome out;
  const EnsembleSpec spec = mc_spec(opt.seed, kReplications, kShards);

  // Set-up: validate the spec into a runner and start the pool. It takes
  // tens of microseconds and the host's speed drifts over hundreds of
  // milliseconds, so it is timed in bursts of kSetupReps, up front and
  // after every measured job (outside the loop's clock); the median of all
  // of them is reported.
  std::vector<double> setup_s;
  auto time_set_up = [&] {
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      const EnsembleRunner r(spec);
      const ThreadPool p(kThreads);
      setup_s.push_back(seconds_since(t0));
    }
  };
  time_set_up();
  const EnsembleRunner runner(spec);
  ThreadPool pool(kThreads);

  if (opt.trace) {
    const double cpu0 = cpu_seconds_self();
    auto t0 = Clock::now();
    const std::string reference = runner.run(pool).table("mc-ensemble");
    const double plain_s = seconds_since(t0);
    const double busy =
        (cpu_seconds_self() - cpu0) / (plain_s * static_cast<double>(kThreads));
    t0 = Clock::now();
    const std::string traced = decomposed_run(spec, pool).table("mc-ensemble");
    const double traced_s = seconds_since(t0);
    out.attempted += spec.replications;
    if (traced != reference)
      out.fail("mc-ensemble: decomposed run differs from EnsembleRunner",
               spec.replications);

    set_decomposition_metrics(out);
    out.set("trace.generate_ms", replication_generate_ms(opt.seed), "ms");
    out.set("parallel.busy_frac", busy, "ratio");
    out.set("trace_overhead_ratio", traced_s / plain_s, "ratio");
    layer_probes(opt, probe_market(opt.seed), out);
    serve_probe(opt, out);
    fabric_probe(opt, out);
    return out;
  }

  // Measured loop: whole ensemble jobs until the next would overrun
  // opt.seconds (at least two, so every job can be checked against the
  // first).
  std::string first;
  std::vector<double> job_ms;
  double elapsed = 0, paused = 0;
  const auto t0 = Clock::now();
  while (job_ms.size() < 2 ||
         elapsed + job_ms.back() / 1e3 <= opt.seconds) {
    const auto j0 = Clock::now();
    const EnsembleResult result = runner.run(pool);
    job_ms.push_back(seconds_since(j0) * 1e3);
    const std::string table = result.table("mc-ensemble");
    out.attempted += spec.replications;
    if (first.empty()) {
      first = table;
    } else if (table != first) {
      out.fail("mc-ensemble: job " + std::to_string(job_ms.size()) +
                   " summary differs from job 1",
               spec.replications);
    }
    const auto p0 = Clock::now();
    time_set_up();
    paused += seconds_since(p0);
    elapsed = seconds_since(t0) - paused;
  }
  HashStream h;
  h.str(first);
  check_golden(opt, "mc-ensemble", hex64(h.digest()), out);

  out.samples["jobs"] = static_cast<double>(job_ms.size());
  out.samples["setups"] = static_cast<double>(setup_s.size());
  out.samples["latency_p95_ms"] = quantile(job_ms, 0.95);
  out.set("setup_s", median(setup_s), "s");
  out.set("throughput",
          static_cast<double>(job_ms.size() * spec.replications) / elapsed, "1/s");
  out.set("latency_p50_ms", quantile(job_ms, 0.50), "ms");
  out.set("peak_rss_mb", peak_rss_mb_self(), "MB");
  return out;
}

}  // namespace bench
