// Unit tests for the Adaptive subsystem: HistoryStats, the permutation
// estimator, and the AdaptiveStrategy end-to-end on scripted markets.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/adaptive/adaptive_runner.hpp"
#include "core/adaptive/estimator.hpp"
#include "core/adaptive/history_stats.hpp"
#include "core/engine.hpp"
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

TEST(Estimator, EvaluatesAllPermutationsSorted) {
  const ZoneTraceSet traces = testing::zones({
      constant_series(0.30, 48),
      constant_series(0.40, 48),
      constant_series(0.50, 48),
  });
  const HistoryStats hist(traces, 0, traces.end(),
                          {Money::cents(27), Money::cents(81)});
  const auto ranked = evaluate_permutations(
      hist, 3, AdaptiveStrategy::kCandidatePolicies, basic_inputs());
  // 2 bids x 7 subsets x 2 policies.
  EXPECT_EQ(ranked.size(), 28u);
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].predicted_cost, ranked[i].predicted_cost);
  // Cheapest: single zone 0 (always up, cheapest) at some bid.
  EXPECT_EQ(ranked.front().zones, (std::vector<std::size_t>{0}));
  EXPECT_FALSE(ranked.front().str().empty());
}

// Three identical zones and three policies the estimator prices alike:
// every same-size subset at a bid ties on cost with every policy. The
// ranking must be the same total order whatever the policy input order —
// zone sets lexicographic, then PolicyKind — not whatever the sort
// algorithm leaves.
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
  const auto a = evaluate_permutations(hist, 3, forward, basic_inputs());
  const auto b = evaluate_permutations(hist, 3, backward, basic_inputs());
  ASSERT_EQ(a.size(), 42u);  // 2 bids x 7 subsets x 3 policies
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    EXPECT_EQ(a[i].bid, b[i].bid);
    EXPECT_EQ(a[i].zones, b[i].zones);
    EXPECT_EQ(a[i].policy, b[i].policy);
    EXPECT_EQ(a[i].predicted_cost, b[i].predicted_cost);
  }
  EXPECT_EQ(a.front().zones, (std::vector<std::size_t>{0}));
  EXPECT_EQ(a.front().policy, PolicyKind::kPeriodic);
  // Within a tie, zone sets ascend lexicographically, then policies.
  std::size_t ties = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i - 1].predicted_cost != a[i].predicted_cost ||
        a[i - 1].zones.size() != a[i].zones.size() ||
        a[i - 1].bid != a[i].bid)
      continue;
    ++ties;
    EXPECT_TRUE(a[i - 1].zones < a[i].zones ||
                (a[i - 1].zones == a[i].zones &&
                 a[i - 1].policy < a[i].policy))
        << "rank " << i;
  }
  EXPECT_GT(ties, 0u);
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
