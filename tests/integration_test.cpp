// Cross-module integration and property tests: every policy on the
// calibrated synthetic market must complete, meet its deadline, bill
// consistently and behave deterministically — across volatility windows,
// bids, redundancy degrees, checkpoint costs and seeds (parameterized
// sweeps).
#include <gtest/gtest.h>

#include <tuple>

#include "core/adaptive/adaptive_runner.hpp"
#include "core/engine.hpp"
#include "core/policies/large_bid.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "market/spot_market.hpp"
#include "test_util.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

const SpotMarket& shared_market() {
  static const SpotMarket market(paper_traces(42), cc2_instance(),
                                 QueueDelayModel());
  return market;
}

// --- Property sweep: every (window, policy, bid, N) combination ----------------

using SweepParam =
    std::tuple<VolatilityWindow, PolicyKind, int /*bid cents*/, int /*N*/>;

class PolicySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PolicySweep, CompletesOnTimeWithConsistentBilling) {
  const auto [window, policy, bid_cents, n] = GetParam();
  const Scenario scenario{window, 0.15, 300, 80};
  std::vector<std::size_t> zones;
  for (int z = 0; z < n; ++z) zones.push_back(static_cast<std::size_t>(z));

  // Three representative chunks, not all 80 (kept fast).
  for (std::size_t chunk : {std::size_t{5}, std::size_t{40},
                            std::size_t{70}}) {
    const Experiment e = scenario.experiment(chunk);
    testing::RunLog log;
    const RunResult r =
        testing::run_fixed(shared_market(), e, policy,
                           Money::cents(bid_cents), zones, {}, &log);

    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.met_deadline);
    EXPECT_LE(r.finish_time, e.deadline_time());

    // Billing consistency: items sum to totals; spot + od = total.
    EXPECT_EQ(log.billed(), r.total_cost);
    EXPECT_EQ(r.spot_cost + r.on_demand_cost, r.total_cost);
    EXPECT_GE(r.total_cost, Money());

    // Sanity ceiling: a deadline-guaranteed run can never exceed the
    // worst case of "whole run on-demand plus every slack hour paid at
    // the bid across all zones".
    const Money ceiling =
        Money::dollars(2.40) * ((e.deadline + kHour) / kHour) +
        (Money::cents(bid_cents) * ((e.deadline + kHour) / kHour)) *
            static_cast<std::int64_t>(zones.size());
    EXPECT_LE(r.total_cost, ceiling);
  }
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& param) {
  std::string name =
      std::get<0>(param.param) == VolatilityWindow::kLow ? "low" : "high";
  // Appended piecewise (no "_" + ... chain) to dodge a GCC 12 -Wrestrict
  // false positive in the inlined operator+(const char*, string&&).
  name += "_";
  name += to_string(std::get<1>(param.param));
  name += "_b";
  name += std::to_string(std::get<2>(param.param));
  name += "_n";
  name += std::to_string(std::get<3>(param.param));
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesBidsZones, PolicySweep,
    ::testing::Combine(
        ::testing::Values(VolatilityWindow::kLow, VolatilityWindow::kHigh),
        ::testing::Values(PolicyKind::kPeriodic, PolicyKind::kMarkovDaly,
                          PolicyKind::kRisingEdge, PolicyKind::kThreshold),
        ::testing::Values(27, 81, 240),
        ::testing::Values(1, 2, 3)),
    sweep_name);

// --- Property sweep: checkpoint costs ----------------------------------------------

class CkptCostSweep : public ::testing::TestWithParam<int> {};

TEST_P(CkptCostSweep, DeadlineHeldAtEveryCheckpointCost) {
  const Duration tc = GetParam();
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, tc, 80};
  for (std::size_t chunk : {std::size_t{10}, std::size_t{60}}) {
    const RunResult r = testing::run_fixed(
        shared_market(), scenario.experiment(chunk),
        PolicyKind::kPeriodic, Money::cents(81), {0, 1, 2});
    EXPECT_TRUE(r.met_deadline) << "tc=" << tc << " chunk=" << chunk;
  }
}

INSTANTIATE_TEST_SUITE_P(Costs, CkptCostSweep,
                         ::testing::Values(60, 300, 600, 900, 1500));

// --- Property sweep: slack values ----------------------------------------------------

class SlackSweep : public ::testing::TestWithParam<double> {};

TEST_P(SlackSweep, DeadlineHeldAtEverySlack) {
  const double slack = GetParam();
  const Scenario scenario{VolatilityWindow::kHigh, slack, 300, 80};
  const RunResult r = testing::run_fixed(
      shared_market(), scenario.experiment(30), PolicyKind::kMarkovDaly,
      Money::cents(81), {1});
  EXPECT_TRUE(r.met_deadline) << "slack=" << slack;
  EXPECT_TRUE(r.completed);
}

INSTANTIATE_TEST_SUITE_P(Slacks, SlackSweep,
                         ::testing::Values(0.02, 0.15, 0.30, 0.50, 1.00));

// --- Seed robustness -------------------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, GeneratorAndEngineHoldInvariantsAcrossSeeds) {
  const std::uint64_t seed = GetParam();
  const SpotMarket market(paper_traces(seed), cc2_instance(),
                          QueueDelayModel());
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 80};
  const RunResult r = testing::run_fixed(
      market, scenario.experiment(17), PolicyKind::kPeriodic,
      Money::cents(81), {0, 1, 2});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_TRUE(r.completed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// --- Adaptive and Large-bid end-to-end on the calibrated market -----------------------

TEST(Integration, AdaptiveMeetsDeadlineInBothWindows) {
  for (VolatilityWindow window :
       {VolatilityWindow::kLow, VolatilityWindow::kHigh}) {
    const Scenario scenario{window, 0.15, 300, 80};
    for (std::size_t chunk : {std::size_t{12}, std::size_t{55}}) {
      AdaptiveStrategy strategy;
      Engine engine(shared_market(), scenario.experiment(chunk), strategy);
      const RunResult r = engine.run();
      EXPECT_TRUE(r.met_deadline);
      // The paper's bound: never beyond 20% above on-demand.
      EXPECT_LE(r.total_cost, Money::dollars(48.0 * 1.2));
    }
  }
}

TEST(Integration, LargeBidNeverTerminatedOutOfBid) {
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 80};
  FixedStrategy strategy(
      LargeBidPolicy::large_bid(), {2},
      std::make_unique<LargeBidPolicy>(Money::cents(81)));
  Engine engine(shared_market(), scenario.experiment(8), strategy);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.out_of_bid_terminations, 0);
}

TEST(Integration, RedundancyCostsAtMostSumOfSingles) {
  // Per-experiment, the N=3 run can pay at most what three always-on
  // single-zone runs would pay together, plus restart slop.
  const Scenario scenario{VolatilityWindow::kLow, 0.50, 300, 80};
  const Experiment e = scenario.experiment(33);
  Money singles;
  for (std::size_t z = 0; z < 3; ++z) {
    singles += testing::run_fixed(shared_market(), e,
                                  PolicyKind::kPeriodic, Money::cents(81),
                                  {z})
                   .total_cost;
  }
  const RunResult redundant = testing::run_fixed(
      shared_market(), e, PolicyKind::kPeriodic, Money::cents(81),
      {0, 1, 2});
  EXPECT_LE(redundant.total_cost, singles + Money::dollars(3.0));
}

TEST(Integration, HigherRedundancyNeverLosesMoreProgressToOutages) {
  const Scenario scenario{VolatilityWindow::kHigh, 0.50, 300, 80};
  const Experiment e = scenario.experiment(44);
  const RunResult one = testing::run_fixed(
      shared_market(), e, PolicyKind::kPeriodic, Money::cents(81), {0});
  const RunResult three = testing::run_fixed(
      shared_market(), e, PolicyKind::kPeriodic, Money::cents(81),
      {0, 1, 2});
  EXPECT_LE(three.full_outages, one.full_outages);
}

TEST(Integration, OnDemandBaselineIsFortyEight) {
  const Scenario scenario{VolatilityWindow::kLow, 0.15, 300, 80};
  const RunResult r = run_on_demand_baseline(scenario.experiment(0),
                                             Money::dollars(2.40));
  EXPECT_EQ(r.total_cost, Money::dollars(48.0));
}

}  // namespace
}  // namespace redspot
