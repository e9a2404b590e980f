#include "exp/head_to_head.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "core/engine.hpp"
#include "core/policies/randomized_bid.hpp"
#include "exp/report.hpp"
#include "stats/descriptive.hpp"
#include "stats/streaming.hpp"

namespace redspot {

namespace {

/// The fixed half of the roster, run with N = all zones.
constexpr PolicyKind kFixedRoster[] = {
    PolicyKind::kPeriodic,   PolicyKind::kMarkovDaly,
    PolicyKind::kRisingEdge, PolicyKind::kThreshold,
    PolicyKind::kIndexTrack,
};

std::uint64_t cell_seed(const std::string& regime, const std::string& policy,
                        std::uint64_t seed) {
  HashStream h;
  h.str("head-to-head-cell");
  h.str(regime);
  h.str(policy);
  h.u64(seed);
  return h.digest();
}

HeadToHeadCell make_cell(const MarketRegime& regime, std::string policy,
                         std::span<const RunResult> results,
                         const HeadToHeadOptions& options) {
  HeadToHeadCell cell;
  cell.regime = regime.name;
  cell.policy = std::move(policy);
  cell.n = results.size();

  const std::vector<double> costs = costs_of(results);
  std::size_t misses = 0;
  PoissonBootstrap boot(options.bootstrap_replicates,
                        cell_seed(cell.regime, cell.policy, options.seed));
  for (std::size_t i = 0; i < results.size(); ++i) {
    REDSPOT_CHECK_MSG(results[i].completed, "head-to-head run incomplete");
    if (!results[i].met_deadline) ++misses;
    boot.add(i, costs[i]);
  }
  cell.mean_cost = mean(costs);
  const auto [lo, hi] = boot.mean_ci(options.ci_level, cell.mean_cost);
  cell.cost_lo = lo;
  cell.cost_hi = hi;
  cell.q1_cost = quantile(costs, 0.25);
  cell.median_cost = median(costs);
  cell.q3_cost = quantile(costs, 0.75);
  cell.miss_rate =
      cell.n == 0 ? 0.0
                  : static_cast<double>(misses) / static_cast<double>(cell.n);
  const auto [mlo, mhi] = wilson_interval(misses, cell.n, options.ci_level);
  cell.miss_lo = mlo;
  cell.miss_hi = mhi;
  return cell;
}

}  // namespace

HeadToHeadResult run_head_to_head(const SpotMarket& market,
                                  const HeadToHeadOptions& options) {
  const std::vector<MarketRegime> regimes =
      options.regimes.empty() ? regime_catalog() : options.regimes;
  const Scenario& scenario = options.scenario;

  std::vector<std::size_t> all_zones(market.num_zones());
  for (std::size_t z = 0; z < all_zones.size(); ++z) all_zones[z] = z;

  // One draw for the whole matrix: the randomized-bid column must differ
  // across regimes only by the regime, not by its luck.
  const Money drawn_bid = RandomizedBidPolicy::draw_bid(
      options.seed, options.bid_floor, market.on_demand_rate());

  HeadToHeadResult out;
  out.ci_level = options.ci_level;
  out.drawn_bid = drawn_bid;

  const auto account = [&out](const SweepDurability& d) {
    out.chunks_replayed += d.chunks_replayed;
    out.chunks_recomputed += d.chunks_recomputed;
  };

  for (const MarketRegime& regime : regimes) {
    EngineOptions eo;
    eo.regime = regime;

    for (const PolicyKind policy : kFixedRoster) {
      SweepDurability dur{options.journal};
      const std::vector<RunResult> results = run_fixed_sweep(
          market, scenario, PolicyRunSpec{policy, options.bid, all_zones},
          eo, &dur);
      account(dur);
      out.cells.push_back(
          make_cell(regime, to_string(policy), results, options));
    }
    {
      SweepDurability dur{options.journal};
      const std::vector<RunResult> results = run_fixed_sweep(
          market, scenario,
          PolicyRunSpec{PolicyKind::kRandomizedBid, drawn_bid, all_zones},
          eo, &dur);
      account(dur);
      out.cells.push_back(
          make_cell(regime, "randomized-bid", results, options));
    }
    {
      SweepDurability dur{options.journal};
      const std::vector<RunResult> results = run_large_bid_sweep(
          market, scenario, options.bid, /*zone=*/0, eo, &dur);
      account(dur);
      out.cells.push_back(make_cell(regime, "large-bid", results, options));
    }
    {
      SweepDurability dur{options.journal};
      const std::vector<RunResult> results =
          run_adaptive_sweep(market, scenario, eo, &dur);
      account(dur);
      out.cells.push_back(make_cell(regime, "adaptive", results, options));
    }
    {
      // The anchor row needs no sweep: the baseline is a closed-form
      // function of the experiment and the regime's billing rules.
      std::vector<RunResult> results;
      results.reserve(scenario.num_experiments);
      for (std::size_t i = 0; i < scenario.num_experiments; ++i)
        results.push_back(run_on_demand_baseline(
            scenario.experiment(i), market.on_demand_rate(), regime));
      out.cells.push_back(make_cell(regime, "on-demand", results, options));
    }
  }
  return out;
}

std::string HeadToHeadResult::table(const std::string& title) const {
  std::string rendered;
  std::size_t i = 0;
  while (i < cells.size()) {
    const std::string& regime = cells[i].regime;
    std::vector<CiRow> rows;
    for (; i < cells.size() && cells[i].regime == regime; ++i) {
      const HeadToHeadCell& c = cells[i];
      CiRow r;
      r.label = c.policy;
      r.n = c.n;
      r.mean = c.mean_cost;
      r.ci_lo = c.cost_lo;
      r.ci_hi = c.cost_hi;
      r.q1 = c.q1_cost;
      r.median = c.median_cost;
      r.q3 = c.q3_cost;
      r.miss_rate = c.miss_rate;
      r.miss_lo = c.miss_lo;
      r.miss_hi = c.miss_hi;
      rows.push_back(r);
    }
    rendered += ci_table(title + " — regime " + regime, rows, ci_level);
  }
  return rendered;
}

}  // namespace redspot
