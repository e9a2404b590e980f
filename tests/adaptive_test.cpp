// Unit tests for the Adaptive subsystem: HistoryStats, the permutation
// estimator, and the AdaptiveStrategy end-to-end on scripted markets.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/adaptive/adaptive_runner.hpp"
#include "core/adaptive/estimator.hpp"
#include "core/adaptive/history_stats.hpp"
#include "common/random.hpp"
#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "trace/synthetic.hpp"
#include "test_util.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::make_market;
using testing::small_experiment;
using testing::step_series;

// --- HistoryStats -------------------------------------------------------------------

TEST(HistoryStats, AvailabilityAndPaidPrice) {
  // Zone: 6 steps at 0.30, 2 at 1.00 (8 total).
  const ZoneTraceSet traces =
      testing::single_zone(step_series({{0.30, 6}, {1.00, 2}}));
  const HistoryStats hist(traces, 0, traces.end(),
                          {Money::cents(81), Money::dollars(1.50)});
  const ZoneBidStats& low = hist.stats(0, 0);
  EXPECT_DOUBLE_EQ(low.availability, 0.75);
  EXPECT_NEAR(low.mean_paid_price, 0.30, 1e-9);
  const ZoneBidStats& high = hist.stats(0, 1);
  EXPECT_DOUBLE_EQ(high.availability, 1.0);
  EXPECT_NEAR(high.mean_paid_price, (6 * 0.30 + 2 * 1.00) / 8, 1e-9);
}

TEST(HistoryStats, InterruptionsAndSpells) {
  // up(2) down(2) up(2) down(2): two interruptions, mean spell 2 steps.
  const ZoneTraceSet traces = testing::single_zone(
      step_series({{0.3, 2}, {1.0, 2}, {0.3, 2}, {1.0, 2}}));
  const HistoryStats hist(traces, 0, traces.end(), {Money::cents(81)});
  const ZoneBidStats& st = hist.stats(0, 0);
  EXPECT_NEAR(st.mean_up_spell, 2.0 * kPriceStep, 1e-9);
  // 2 interruptions over 8 steps = 2400 s.
  EXPECT_NEAR(st.interruptions_per_hour, 2.0 / (2400.0 / 3600.0), 1e-9);
}

TEST(HistoryStats, CombinedAvailabilityAndOutageRate) {
  const ZoneTraceSet traces = testing::zones({
      step_series({{0.3, 2}, {1.0, 2}, {1.0, 2}, {1.0, 2}}),
      step_series({{1.0, 2}, {0.3, 2}, {1.0, 2}, {0.3, 2}}),
  });
  const HistoryStats hist(traces, 0, traces.end(), {Money::cents(81)});
  EXPECT_DOUBLE_EQ(hist.combined_availability({0, 1}, 0), 0.75);
  EXPECT_DOUBLE_EQ(hist.combined_availability({0}, 0), 0.25);
  // any-up: steps 0-3 up, 4-5 down, 6-7 up -> one full outage.
  EXPECT_NEAR(hist.full_outage_rate({0, 1}, 0),
              1.0 / (8.0 * kPriceStep / 3600.0), 1e-9);
}

TEST(HistoryStats, ValidatesArguments) {
  const ZoneTraceSet traces =
      testing::single_zone(constant_series(0.3, 8));
  EXPECT_THROW(HistoryStats(traces, 0, traces.end(), {}), CheckFailure);
  const HistoryStats hist(traces, 0, traces.end(), {Money::cents(81)});
  EXPECT_THROW(hist.stats(5, 0), CheckFailure);
  EXPECT_THROW(hist.stats(0, 1), CheckFailure);
  EXPECT_THROW(hist.combined_availability({}, 0), CheckFailure);
  EXPECT_THROW(hist.subset_rows(0), CheckFailure);  // empty subset
  EXPECT_THROW(hist.subset_rows(2), CheckFailure);  // zone 1 of 1
  // Subsets are keyed by a 64-bit zone mask.
  std::vector<PriceSeries> wide(65, constant_series(0.3, 8));
  const ZoneTraceSet too_wide = testing::zones(std::move(wide));
  EXPECT_THROW(HistoryStats(too_wide, 0, too_wide.end(), {Money::cents(81)}),
               CheckFailure);
}

// --- Estimator -----------------------------------------------------------------------

EstimatorInputs basic_inputs() {
  EstimatorInputs in;
  in.remaining_compute = 4 * kHour;
  in.remaining_time = 6 * kHour;
  in.checkpoint_cost = 300;
  in.restart_cost = 300;
  return in;
}

TEST(Estimator, AlwaysUpZoneIsPureSpot) {
  const ZoneTraceSet traces =
      testing::single_zone(constant_series(0.30, 48));
  const HistoryStats hist(traces, 0, traces.end(), {Money::cents(81)});
  const PermutationEstimate e = estimate_permutation(
      hist, 0, {0}, PolicyKind::kPeriodic, basic_inputs());
  EXPECT_GT(e.progress_rate, 0.9);
  EXPECT_EQ(e.on_demand_seconds, 0);
  // ~4.4 h of spot at $0.30/h.
  EXPECT_NEAR(e.predicted_cost.to_double(), 0.30 * 4.36, 0.15);
}

TEST(Estimator, NeverUpZoneIsAllOnDemand) {
  const ZoneTraceSet traces =
      testing::single_zone(constant_series(2.0, 48));
  const HistoryStats hist(traces, 0, traces.end(), {Money::cents(81)});
  const PermutationEstimate e = estimate_permutation(
      hist, 0, {0}, PolicyKind::kPeriodic, basic_inputs());
  EXPECT_DOUBLE_EQ(e.progress_rate, 0.0);
  EXPECT_GT(e.on_demand_seconds, 4 * kHour);
  // >= 5 started on-demand hours at $2.40.
  EXPECT_GE(e.predicted_cost, Money::dollars(12.0));
}

TEST(Estimator, ThirtyMinuteSpellsDefeatHourlyCheckpoints) {
  // Up-spells shorter than the Periodic checkpoint interval commit
  // nothing: the estimator must predict a zero progress rate.
  const ZoneTraceSet traces = testing::single_zone(step_series(
      {{0.3, 6}, {2.0, 6}, {0.3, 6}, {2.0, 6}, {0.3, 6}, {2.0, 6}}));
  const HistoryStats hist(traces, 0, traces.end(), {Money::cents(81)});
  const PermutationEstimate e = estimate_permutation(
      hist, 0, {0}, PolicyKind::kPeriodic, basic_inputs());
  EXPECT_DOUBLE_EQ(e.progress_rate, 0.0);
  EXPECT_GT(e.on_demand_seconds, 0);
}

TEST(Estimator, FlakyZoneSplitsBetweenSpotAndOnDemand) {
  // Two-hour up-spells: Periodic banks progress but availability (2/3)
  // cannot finish 4 h of compute in the 6 h budget alone.
  const ZoneTraceSet traces = testing::single_zone(step_series(
      {{0.3, 24}, {2.0, 12}, {0.3, 24}, {2.0, 12}, {0.3, 24}, {2.0, 12}}));
  const HistoryStats hist(traces, 0, traces.end(), {Money::cents(81)});
  const PermutationEstimate e = estimate_permutation(
      hist, 0, {0}, PolicyKind::kPeriodic, basic_inputs());
  EXPECT_GT(e.progress_rate, 0.1);
  EXPECT_LT(e.progress_rate, 0.75);
  EXPECT_GT(e.spot_seconds, 0);
  EXPECT_GT(e.on_demand_seconds, 0);
}

TEST(Estimator, RedundancyRaisesRateAndCost) {
  // Two anti-correlated zones: together ~always up, individually ~half.
  const ZoneTraceSet traces = testing::zones({
      step_series({{0.3, 6}, {2.0, 6}, {0.3, 6}, {2.0, 6}}),
      step_series({{2.0, 6}, {0.3, 6}, {2.0, 6}, {0.3, 6}}),
  });
  const HistoryStats hist(traces, 0, traces.end(), {Money::cents(81)});
  const auto in = basic_inputs();
  const auto single =
      estimate_permutation(hist, 0, {0}, PolicyKind::kPeriodic, in);
  const auto both =
      estimate_permutation(hist, 0, {0, 1}, PolicyKind::kPeriodic, in);
  EXPECT_GT(both.progress_rate, single.progress_rate);
  EXPECT_GT(both.cost_rate, single.cost_rate);
}

TEST(Estimator, CurrentPriceInflatesFirstHour) {
  const ZoneTraceSet traces =
      testing::single_zone(constant_series(0.30, 48));
  const HistoryStats hist(traces, 0, traces.end(), {Money::dollars(2.40)});
  EstimatorInputs in = basic_inputs();
  const auto cheap_now =
      estimate_permutation(hist, 0, {0}, PolicyKind::kPeriodic, in);
  in.current_prices = {2.0};  // the zone just turned expensive
  const auto pricey_now =
      estimate_permutation(hist, 0, {0}, PolicyKind::kPeriodic, in);
  EXPECT_GT(pricey_now.predicted_cost, cheap_now.predicted_cost);
}

/// The documented total order: predicted cost, then fewer zones, lower
/// bid, the lexicographically smaller zone set, then the lower PolicyKind.
bool ranks_before(const PermutationEstimate& a, const PermutationEstimate& b) {
  if (a.predicted_cost != b.predicted_cost)
    return a.predicted_cost < b.predicted_cost;
  if (a.zones.size() != b.zones.size())
    return a.zones.size() < b.zones.size();
  if (a.bid != b.bid) return a.bid < b.bid;
  if (a.zones != b.zones) return a.zones < b.zones;
  return a.policy < b.policy;
}

/// Every permutation, each priced by estimate_permutation.
std::vector<PermutationEstimate> all_permutations(
    const HistoryStats& hist, std::size_t max_zones,
    const std::vector<PolicyKind>& policies, const EstimatorInputs& in) {
  const std::size_t z_total = std::min(hist.num_zones(), max_zones);
  std::vector<PermutationEstimate> all;
  for (std::size_t mask = 1; mask < (std::size_t{1} << z_total); ++mask) {
    std::vector<std::size_t> subset;
    for (std::size_t z = 0; z < z_total; ++z)
      if (mask & (std::size_t{1} << z)) subset.push_back(z);
    for (std::size_t b = 0; b < hist.bid_grid().size(); ++b)
      for (PolicyKind policy : policies)
        all.push_back(estimate_permutation(hist, b, subset, policy, in));
  }
  return all;
}

/// Brute-force minimum of all_permutations under ranks_before.
PermutationEstimate brute_force_best(const HistoryStats& hist,
                                     std::size_t max_zones,
                                     const std::vector<PolicyKind>& policies,
                                     const EstimatorInputs& in) {
  const auto all = all_permutations(hist, max_zones, policies, in);
  return *std::min_element(all.begin(), all.end(), ranks_before);
}

void expect_same_permutation(const PermutationEstimate& got,
                             const PermutationEstimate& want) {
  EXPECT_EQ(got.bid, want.bid);
  EXPECT_EQ(got.zones, want.zones);
  EXPECT_EQ(got.policy, want.policy);
  EXPECT_EQ(got.predicted_cost, want.predicted_cost);
  EXPECT_EQ(got.progress_rate, want.progress_rate);
  EXPECT_EQ(got.cost_rate, want.cost_rate);
  EXPECT_EQ(got.spot_seconds, want.spot_seconds);
  EXPECT_EQ(got.on_demand_seconds, want.on_demand_seconds);
}

const std::vector<PolicyKind> kAdaptivePolicies(
    AdaptiveStrategy::kCandidatePolicies.begin(),
    AdaptiveStrategy::kCandidatePolicies.end());

TEST(Estimator, BestPermutationIsTheBruteForceMinimum) {
  const ZoneTraceSet traces = testing::zones({
      constant_series(0.30, 48),
      constant_series(0.40, 48),
      constant_series(0.50, 48),
  });
  const HistoryStats hist(traces, 0, traces.end(),
                          {Money::cents(27), Money::cents(81)});
  const PermutationEstimate best = best_permutation(
      hist, 3, AdaptiveStrategy::kCandidatePolicies, basic_inputs());
  expect_same_permutation(
      best, brute_force_best(hist, 3, kAdaptivePolicies, basic_inputs()));
  // Cheapest: single zone 0 (always up, cheapest) at some bid.
  EXPECT_EQ(best.zones, (std::vector<std::size_t>{0}));
  EXPECT_FALSE(best.str().empty());
}

// Random piecewise-constant markets whose zones come in identical pairs, so
// equal-cost candidates are common and every tie-break of the order —
// including between equal-size zone sets such as {0,3} and {1,2} — decides
// some winners.
TEST(Estimator, BestPermutationMatchesBruteForceOnRandomMarkets) {
  Rng rng(1807);
  const std::vector<Money> grid = {Money::cents(27), Money::cents(47),
                                   Money::cents(81), Money::dollars(2.40)};
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<PriceSeries> pair;
    for (int p = 0; p < 2; ++p) {
      std::vector<Money> samples(96);
      double cur = 0.30;
      for (Money& m : samples) {
        if (rng.uniform() < 0.15)
          cur = 0.25 + 0.30 * static_cast<double>(rng.uniform_index(4));
        m = Money::dollars(cur);
      }
      pair.emplace_back(0, kPriceStep, std::move(samples));
    }
    const ZoneTraceSet traces =
        testing::zones({pair[0], pair[1], pair[0], pair[1]});
    const HistoryStats hist(traces, 0, traces.end(), grid);
    EstimatorInputs in = basic_inputs();
    in.remaining_compute = static_cast<Duration>(1 + rng.uniform_index(6)) *
                           kHour;
    if (trial % 2 == 1) {
      for (std::size_t z = 0; z < traces.num_zones(); ++z)
        in.current_prices.push_back(
            traces.zone(z).at(traces.end() - kPriceStep).to_double());
    }
    const std::size_t max_zones = 1 + static_cast<std::size_t>(trial) % 4;
    expect_same_permutation(
        best_permutation(hist, max_zones, kAdaptivePolicies, in),
        brute_force_best(hist, max_zones, kAdaptivePolicies, in));
  }
}

// Three identical zones and three policies the estimator prices alike:
// every same-size subset at a bid ties on cost with every policy. The
// winner must be the same whatever the policy input order — the smallest
// zone set, then the lowest PolicyKind — not whatever the scan meets first.
TEST(Estimator, TiedPermutationsHaveOneOrder) {
  const ZoneTraceSet traces = testing::zones({
      constant_series(0.30, 48),
      constant_series(0.30, 48),
      constant_series(0.30, 48),
  });
  const HistoryStats hist(traces, 0, traces.end(),
                          {Money::cents(27), Money::cents(81)});
  const std::vector<PolicyKind> forward = {
      PolicyKind::kPeriodic, PolicyKind::kRisingEdge, PolicyKind::kThreshold};
  const std::vector<PolicyKind> backward(forward.rbegin(), forward.rend());
  const PermutationEstimate a =
      best_permutation(hist, 3, forward, basic_inputs());
  const PermutationEstimate b =
      best_permutation(hist, 3, backward, basic_inputs());
  expect_same_permutation(a, b);
  expect_same_permutation(a,
                          brute_force_best(hist, 3, forward, basic_inputs()));
  EXPECT_EQ(a.zones, (std::vector<std::size_t>{0}));
  EXPECT_EQ(a.policy, PolicyKind::kPeriodic);
  // The winner really was decided by tie-breaks: other zone sets and
  // policies share its cost, size and bid.
  std::size_t ties = 0;
  for (const PermutationEstimate& e :
       all_permutations(hist, 3, forward, basic_inputs())) {
    if (e.predicted_cost == a.predicted_cost &&
        e.zones.size() == a.zones.size() && e.bid == a.bid)
      ++ties;
  }
  EXPECT_EQ(ties, 9u);  // 3 single zones x 3 policies
}

// The scan contract on the windows Adaptive really sees: one HistoryStats
// slid tick by tick (the subset memo is slid, not refilled) through the
// high window of a paper trace. At every tick the scan must equal the
// brute-force minimum for every zone budget, with and without current
// prices — on the paper grid, and on an unsorted grid holding a duplicate
// bid under a policy list that puts two hourly policies around Markov-Daly.
TEST(Estimator, BestPermutationMatchesBruteForceOnSlidWindows) {
  const ZoneTraceSet traces = paper_traces(7);
  const std::vector<Money> unsorted = {
      Money::cents(81), Money::cents(27), Money::dollars(2.40),
      Money::cents(47), Money::cents(81), Money::dollars(1.20)};
  const std::vector<PolicyKind> mixed = {
      PolicyKind::kThreshold, PolicyKind::kMarkovDaly, PolicyKind::kPeriodic};
  struct Case {
    std::vector<Money> grid;
    std::vector<PolicyKind> policies;
  };
  const Case cases[] = {{paper_bid_grid(), kAdaptivePolicies},
                        {unsorted, mixed}};
  constexpr int kTicks = 200;
  const SimTime first = window_start(VolatilityWindow::kHigh) + 2 * kDay;
  for (const Case& c : cases) {
    SCOPED_TRACE("grid of " + std::to_string(c.grid.size()));
    HistoryStats hist(traces, first - 2 * kDay, first, c.grid);
    for (int tick = 0; tick < kTicks; ++tick) {
      const SimTime now = first + tick * kPriceStep;
      hist.advance(traces, now - 2 * kDay, now);
      EstimatorInputs in = basic_inputs();
      in.remaining_compute = static_cast<Duration>(2 + tick % 9) * kHour;
      in.remaining_time = in.remaining_compute + (tick % 5) * kHour;
      for (int priced = 0; priced < 2; ++priced) {
        in.current_prices.clear();
        if (priced == 1) {
          for (std::size_t z = 0; z < traces.num_zones(); ++z)
            in.current_prices.push_back(traces.price(z, now).to_double());
        }
        for (std::size_t max_zones = 1; max_zones <= 3; ++max_zones) {
          SCOPED_TRACE("tick " + std::to_string(tick) + " priced " +
                       std::to_string(priced) + " max_zones " +
                       std::to_string(max_zones));
          expect_same_permutation(
              best_permutation(hist, max_zones, c.policies, in),
              brute_force_best(hist, max_zones, c.policies, in));
        }
      }
    }
    EXPECT_EQ(hist.full_rebuilds(), 1u);
  }
}

// A non-empty current-price vector must price every zone's first hour: a
// short one would silently price the missing zones at $0.
TEST(Estimator, ShortCurrentPricesAreRejected) {
  const ZoneTraceSet traces = testing::zones(
      {constant_series(0.30, 48), constant_series(0.40, 48)});
  const HistoryStats hist(traces, 0, traces.end(), {Money::cents(81)});
  EstimatorInputs in = basic_inputs();
  in.current_prices = {0.30};
  EXPECT_THROW(
      estimate_permutation(hist, 0, {1}, PolicyKind::kPeriodic, in),
      CheckFailure);
  EXPECT_THROW(best_permutation(hist, 2, kAdaptivePolicies, in),
               CheckFailure);
  in.current_prices = {0.30, 0.40};
  EXPECT_NO_THROW(best_permutation(hist, 2, kAdaptivePolicies, in));
}

TEST(Estimator, PaperBidGrid) {
  const std::vector<Money> grid = paper_bid_grid();
  ASSERT_EQ(grid.size(), 15u);
  EXPECT_EQ(grid.front(), Money::cents(27));
  EXPECT_EQ(grid.back(), Money::dollars(3.07));
  for (std::size_t i = 1; i < grid.size(); ++i)
    EXPECT_EQ(grid[i] - grid[i - 1], Money::cents(20));
}

// --- AdaptiveStrategy ------------------------------------------------------------------

TEST(Adaptive, PicksCheapAlwaysUpZone) {
  // Zone 0 cheap and stable, zones 1-2 expensive: Adaptive must start on
  // zone 0 alone and ride it to completion with no on-demand.
  const ZoneTraceSet traces = testing::zones({
      constant_series(0.30, 60 * 12),
      constant_series(1.80, 60 * 12),
      constant_series(1.90, 60 * 12),
  });
  const SpotMarket market = make_market(traces);
  const Experiment e = small_experiment(4.0, 0.5, 300, /*start=*/4 * kHour);
  AdaptiveStrategy strategy;
  Engine engine(market, e, strategy);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.on_demand_cost, Money());
  // ~5 started hours at $0.30 (no reason to pay more).
  EXPECT_LE(r.total_cost, Money::dollars(1.80));
  ASSERT_TRUE(strategy.last_choice().has_value());
  EXPECT_EQ(strategy.last_choice()->zones.size(), 1u);
}

TEST(Adaptive, AbandonsZoneThatTurnsExpensive) {
  // Zone 0 cheap in history but dies right at the start; zone 1 steady.
  // Adaptive must end up doing most work on zone 1, not on-demand.
  std::vector<PriceSeries> series;
  series.push_back(step_series({{0.30, 4 * 12 + 6}, {2.2, 10 * 12},
                                {0.31, 46 * 12 - 6}}));
  series.push_back(constant_series(0.45, 60 * 12));
  const SpotMarket market = make_market(testing::zones(std::move(series)));
  const Experiment e = small_experiment(4.0, 0.5, 300, /*start=*/4 * kHour);
  AdaptiveStrategy strategy;
  Engine engine(market, e, strategy);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  // The run must not collapse to on-demand: zone 1 was always available.
  EXPECT_LT(r.on_demand_cost, Money::dollars(5.0));
  EXPECT_LE(r.total_cost, Money::dollars(8.0));
}

TEST(Adaptive, BoundedEvenWhenEveryZoneIsHostile) {
  // Adversarial market: every zone priced ABOVE the on-demand rate.
  // Adaptive may legally bid above them (its grid tops at $3.07), so the
  // paper's empirical "never 20% above on-demand" does not apply to this
  // pathological market — but the deadline must hold and the cost must
  // stay within the slack-bounded ceiling (spot hours at ~$2.7 are at
  // most ~12% dearer than on-demand ones).
  const SpotMarket market = make_market(testing::zones({
      constant_series(2.5, 60 * 12),
      constant_series(2.6, 60 * 12),
      constant_series(2.7, 60 * 12),
  }));
  const Experiment e = small_experiment(4.0, 0.25, 300, /*start=*/4 * kHour);
  AdaptiveStrategy strategy;
  Engine engine(market, e, strategy);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  EXPECT_LE(r.total_cost, Money::dollars(2.7 * 6));  // deadline-hours cap
}

}  // namespace
}  // namespace redspot
