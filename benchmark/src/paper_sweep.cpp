// paper-sweep: the paper's Figure-4 grid through exp::run_fixed_sweep on
// one 14-month trace set. Many short sweeps over one long trace, so the
// per-sweep fixed cost (the shared trace index in core/batch) weighs as
// much as the simulation itself.
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "core/batch/batched_engine.hpp"
#include "exp/sweep.hpp"
#include "fault/audit_observer.hpp"
#include "trace/synthetic.hpp"

using namespace redspot;

namespace bench {

namespace {

/// Runs per sweep: the paper's 80 overlapping chunks per scenario cell.
constexpr std::size_t kExperiments = 80;
/// Lanes per lockstep group in exp/sweep's batched path, mirrored by the
/// traced decomposition.
constexpr std::size_t kGroupWidth = 16;
/// One run in this many from the first pass is re-run through the scalar
/// engine and must match bit-for-bit.
constexpr std::size_t kScalarEvery = 32;
/// The measured loop repeats the set-up once every this many sweeps.
constexpr std::size_t kSetupEvery = 16;

struct Cell {
  Scenario scenario;
  PolicyRunSpec spec;
};

/// {low, high} window x {15%, 50%} slack x 4 fixed policies x bids
/// {$0.27, $0.81, $2.40} x zone sets {0}, {1}, {2}, {0,1,2}: 192 sweeps.
/// Policy varies fastest, then zone set, window, slack and bid, so any
/// prefix of a pass mixes the expensive and cheap sweeps evenly — a
/// time-bounded run stops mid-pass, and its rate must not depend on where.
std::vector<Cell> paper_grid() {
  const PolicyKind policies[] = {PolicyKind::kThreshold, PolicyKind::kRisingEdge,
                                 PolicyKind::kPeriodic, PolicyKind::kMarkovDaly};
  const std::vector<std::size_t> zone_sets[] = {{0}, {1}, {2}, {0, 1, 2}};
  const VolatilityWindow windows[] = {VolatilityWindow::kLow,
                                      VolatilityWindow::kHigh};
  const double slacks[] = {0.15, 0.50};
  const Money bids[] = {Money::cents(27), Money::cents(81), Money::dollars(2.40)};
  std::vector<Cell> grid;
  for (std::size_t i = 0; i < 192; ++i) {
    Cell c;
    c.scenario = Scenario{windows[(i / 16) % 2], slacks[(i / 32) % 2], 300,
                          kExperiments};
    c.spec = PolicyRunSpec{policies[i % 4], bids[(i / 64) % 3], zone_sets[(i / 4) % 4]};
    grid.push_back(std::move(c));
  }
  return grid;
}

std::uint64_t digest(const std::vector<RunResult>& runs) {
  HashStream h;
  for (const RunResult& r : runs) h.str(run_bytes(r));
  return h.digest();
}

std::uint64_t pass_digest(const std::vector<std::uint64_t>& cells) {
  HashStream h;
  for (const std::uint64_t d : cells) h.u64(d);
  return h.digest();
}

/// The sweep rebuilt from its layers — one BatchedSweepEngine (the shared
/// trace index) and groups of lockstep lanes, each audited — with a span
/// around each layer call.
std::vector<RunResult> traced_sweep(const SpotMarket& market, const Cell& cell) {
  Span sweep("sweep");
  std::unique_ptr<batch::BatchedSweepEngine> engine;
  {
    Span s("batch.index_build");
    engine = std::make_unique<batch::BatchedSweepEngine>(market);
  }
  std::vector<RunResult> results(kExperiments);
  const std::size_t groups = (kExperiments + kGroupWidth - 1) / kGroupWidth;
  const int parent = sweep.id();
  parallel_for(0, groups, [&](std::size_t g) {
    Span s("batch.group", parent);
    const std::size_t lo = g * kGroupWidth;
    const std::size_t hi = std::min(lo + kGroupWidth, kExperiments);
    std::vector<std::unique_ptr<AuditObserver>> audits;
    std::vector<batch::BatchConfig> configs;
    for (std::size_t k = lo; k < hi; ++k) {
      const Experiment e = cell.scenario.experiment(k);
      audits.push_back(std::make_unique<AuditObserver>(e, market.on_demand_rate()));
      configs.push_back(batch::BatchConfig{e, cell.spec.policy, cell.spec.bid,
                                           cell.spec.zones, audits.back().get()});
    }
    const std::vector<RunResult> runs = engine->run(configs);
    for (std::size_t k = lo; k < hi; ++k) results[k] = runs[k - lo];
  });
  return results;
}

}  // namespace

Outcome run_paper_sweep(const Options& opt) {
  Outcome out;
  const std::size_t threads = default_pool().size();

  // Set-up: synthesize the 14-month trace set and build the market. It
  // takes tens of milliseconds, and the host's speed drifts over hundreds
  // of milliseconds, so it is timed a few times up front and again every
  // kSetupEvery sweeps of the measured loop (outside the loop's clock);
  // the median of all of them is reported.
  std::vector<double> setup_s, generate_ms;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    ZoneTraceSet traces = paper_traces(opt.seed);
    generate_ms.push_back(seconds_since(t0) * 1e3);
    SpotMarket m(std::move(traces), cc2_instance(), QueueDelayModel());
    setup_s.push_back(seconds_since(t0));
    return m;
  };
  std::optional<SpotMarket> market;
  for (int rep = 0; rep < 5; ++rep) market.emplace(set_up());

  const std::vector<Cell> grid = paper_grid();
  std::vector<std::uint64_t> first(grid.size());

  if (opt.trace) {
    // Untraced pass (the reference for bit-identity and overhead).
    const double cpu0 = cpu_seconds_self();
    auto t0 = Clock::now();
    for (std::size_t c = 0; c < grid.size(); ++c)
      first[c] = digest(run_fixed_sweep(*market, grid[c].scenario, grid[c].spec));
    const double plain_s = seconds_since(t0);
    const double busy =
        (cpu_seconds_self() - cpu0) / (plain_s * static_cast<double>(threads));

    t0 = Clock::now();
    {
      Span pass("paper-sweep.traced_pass");
      for (std::size_t c = 0; c < grid.size(); ++c) {
        out.attempted += kExperiments;
        if (digest(traced_sweep(*market, grid[c])) != first[c])
          out.fail("paper-sweep: traced decomposition of sweep " +
                       std::to_string(c) + " differs from run_fixed_sweep",
                   kExperiments);
      }
    }
    const double traced_s = seconds_since(t0);

    out.set("trace.generate_ms", median(generate_ms), "ms");
    out.set("parallel.busy_frac", busy, "ratio");
    out.set("trace_overhead_ratio", traced_s / plain_s, "ratio");
    layer_probes(opt, *market, out);
    serve_probe(opt, out);
    fabric_probe(opt, out);
    ensemble_probe(opt, out);
    return out;
  }

  // Measured loop: whole sweeps, cycling through the grid, for at least
  // one full pass and at least opt.seconds. Later passes must reproduce
  // the first bit-for-bit.
  struct Sampled {
    std::size_t cell, chunk;
    std::string bytes;
  };
  std::vector<Sampled> sampled;
  std::vector<double> sweep_ms;
  std::uint64_t runs = 0;
  std::size_t sweeps = 0;
  double elapsed = 0, paused = 0;
  const auto t0 = Clock::now();
  while (sweeps < grid.size() || elapsed < opt.seconds) {
    const std::size_t c = sweeps % grid.size();
    const auto s0 = Clock::now();
    const std::vector<RunResult> results =
        run_fixed_sweep(*market, grid[c].scenario, grid[c].spec);
    sweep_ms.push_back(seconds_since(s0) * 1e3);
    runs += results.size();
    const std::uint64_t d = digest(results);
    if (sweeps < grid.size()) {
      first[c] = d;
      for (std::size_t k = 0; k < results.size(); ++k) {
        if ((c * kExperiments + k) % kScalarEvery == 0)
          sampled.push_back({c, k, run_bytes(results[k])});
      }
    } else if (d != first[c]) {
      out.fail("paper-sweep: sweep " + std::to_string(c) + " pass " +
                   std::to_string(sweeps / grid.size()) + " differs from pass 0",
               results.size());
    }
    ++sweeps;
    if (sweeps % kSetupEvery == 0) {
      const auto p0 = Clock::now();
      set_up();
      paused += seconds_since(p0);
    }
    elapsed = seconds_since(t0) - paused;
  }

  // Scalar re-runs of the sampled chunks (outside the timed loop).
  std::vector<char> same(sampled.size(), 0);
  parallel_for(0, sampled.size(), [&](std::size_t i) {
    const Cell& cell = grid[sampled[i].cell];
    const Experiment e = cell.scenario.experiment(sampled[i].chunk);
    FixedStrategy strategy(cell.spec.bid, cell.spec.zones,
                           make_policy(cell.spec.policy));
    Engine engine(*market, e, strategy);
    AuditObserver audit(e, market->on_demand_rate());
    engine.add_observer(&audit);
    same[i] = run_bytes(engine.run()) == sampled[i].bytes;
  });
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    if (!same[i])
      out.fail("paper-sweep: sweep " + std::to_string(sampled[i].cell) +
               " chunk " + std::to_string(sampled[i].chunk) +
               " differs from scalar Engine::run");
  }
  out.attempted = runs + sampled.size();
  check_golden(opt, "paper-sweep", hex64(pass_digest(first)), out);

  out.samples["sweeps"] = static_cast<double>(sweeps);
  out.samples["scalar_rechecks"] = static_cast<double>(sampled.size());
  out.samples["setups"] = static_cast<double>(setup_s.size());
  out.samples["latency_p95_ms"] = quantile(sweep_ms, 0.95);
  out.set("setup_s", median(setup_s), "s");
  out.set("throughput", static_cast<double>(runs) / elapsed, "1/s");
  out.set("latency_p50_ms", quantile(sweep_ms, 0.50), "ms");
  out.set("peak_rss_mb", peak_rss_mb_self(), "MB");
  return out;
}

}  // namespace bench
