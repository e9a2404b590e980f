// Odds-and-ends coverage: file-based CSV round trips,
// engine accounting counters, and cross-checks between independent
// implementations (billing ledger vs engine totals; availability vs
// HistoryStats).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/adaptive/history_stats.hpp"
#include "core/engine.hpp"
#include "core/run_result.hpp"
#include "markov/model.hpp"
#include "markov/uptime.hpp"
#include "exp/scenario.hpp"
#include "test_util.hpp"
#include "trace/availability.hpp"
#include "trace/csv_io.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::make_market;
using testing::run_fixed;
using testing::single_zone;
using testing::small_experiment;
using testing::step_series;

TEST(CsvFiles, WriteAndReadBack) {
  const auto path =
      std::filesystem::temp_directory_path() / "redspot_csv_test.csv";
  const ZoneTraceSet original =
      testing::zones({step_series({{0.27, 4}, {1.999, 4}}),
                      constant_series(0.5, 8)});
  write_csv_file(path.string(), original);
  const ZoneTraceSet parsed = read_csv_file(path.string());
  EXPECT_EQ(parsed.num_zones(), 2u);
  EXPECT_EQ(parsed.price(0, 4 * kPriceStep), Money::dollars(1.999));
  std::filesystem::remove(path);
  EXPECT_THROW(read_csv_file("/nonexistent/nowhere.csv"),
               std::runtime_error);
}

TEST(EngineAccounting, SpotInstanceSecondsTracksWallTime) {
  // One instance, 2 h of compute, no interruptions. Checkpoints: two
  // Periodic boundary commits plus one deadline-margin forced commit (1 h
  // slack drains to the trigger once mid-run) = 3 x 300 s of pauses.
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 24 * 12)));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  const RunResult r =
      run_fixed(market, e, PolicyKind::kPeriodic, Money::cents(81), {0});
  EXPECT_EQ(r.checkpoints_committed, 3);
  EXPECT_EQ(r.spot_instance_seconds, 2 * kHour + 3 * 300);
  EXPECT_EQ(r.queue_delay_total, 0);
  EXPECT_EQ(r.full_outages, 0);
}

TEST(EngineAccounting, FullOutageCountsOncePerCollapse) {
  // Both zones die at the same tick and recover together, twice.
  const auto zone_trace = step_series({{0.30, 6},
                                       {2.00, 6},
                                       {0.30, 6},
                                       {2.00, 6},
                                       {0.30, 40 * 12}});
  const SpotMarket market =
      make_market(testing::zones({zone_trace, zone_trace}));
  const Experiment e = small_experiment(2.0, 1.5, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0, 1});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.full_outages, 2);
  EXPECT_EQ(r.out_of_bid_terminations, 4);  // 2 zones x 2 collapses
}

TEST(EngineAccounting, RestartCountsOnlyCheckpointLoads) {
  // First death has no checkpoint -> from-scratch start (not a restart);
  // second death restores from the by-then committed checkpoint.
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, 6},               // 30 min, no ckpt yet
      {2.00, 6},               // death 1
      {0.30, 12 + 9},          // 1h45: periodic ckpt at 1h55... runs
      {2.00, 6},               // death 2 (after >1 cycle: ckpt exists)
      {0.30, 40 * 12},
  })));
  const Experiment e = small_experiment(2.0, 2.0, 300);
  const RunResult r =
      run_fixed(market, e, PolicyKind::kPeriodic, Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.out_of_bid_terminations, 2);
  EXPECT_EQ(r.restarts, 1);
}

TEST(CrossCheck, HistoryStatsMatchesAvailabilityAnalysis) {
  // Two independent implementations must agree on availability.
  const ZoneTraceSet traces = paper_traces(42).window(31 * kDay, 38 * kDay);
  const HistoryStats hist(traces, traces.start(), traces.end(),
                          {Money::cents(81)});
  for (std::size_t z = 0; z < traces.num_zones(); ++z) {
    const double via_hist = hist.stats(z, 0).availability;
    const double via_analysis = availability_fraction(
        traces.zone(z), Money::cents(81), traces.start(), traces.end());
    EXPECT_NEAR(via_hist, via_analysis, 1e-9);
  }
}

TEST(CrossCheck, EngineCostEqualsHandComputedBill) {
  // A fully scripted run whose bill is computable by hand:
  //   hour 1 at 0.30 (completed), hour 2 at 0.40 (completed),
  //   30 min into hour 3 at 0.50 -> out-of-bid (free),
  //   recovery + finish: restart at 3h30m from the 2h-boundary ckpt
  //   (progress ~1h55m), needs ~1h10m -> two started hours at 0.35.
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, 12},
      {0.40, 12},
      {0.50, 6},
      {2.00, 6},
      {0.35, 40 * 12},
  })));
  const Experiment e = small_experiment(3.0, 1.0, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  // Committed at deaths: ckpts at 55min and 1h55m (cycle ends - tc).
  // Work lost: 2h25m(death) - ~1h50m committed = ~35 min.
  EXPECT_EQ(r.out_of_bid_terminations, 1);
  Money expected = Money::dollars(0.30) + Money::dollars(0.40);
  // Remaining compute after restart: 3h - 1h50m = 1h10m + t_r = ~1h15m
  // -> 2 started hours at 0.35.
  expected += Money::dollars(0.35) * 2;
  EXPECT_EQ(r.total_cost, expected);
}

TEST(CrossCheck, TwoIndependentUptimePathsAgreeOnPaperTraces) {
  // Closed-form vs iterative solvers on real generator output at several
  // probe points (complements the random-chain property test).
  const ZoneTraceSet traces = paper_traces(7);
  for (SimTime t : {35 * kDay, 40 * kDay, 95 * kDay}) {
    for (std::size_t z = 0; z < 3; ++z) {
      const PriceSeries w = traces.zone(z).window(t - 2 * kDay, t);
      const MarkovModel m = build_markov_model(w);
      const Money cur = w.sample(w.size() - 1);
      const Duration closed = expected_uptime(m, cur, Money::cents(81));
      const Duration iter =
          expected_uptime_iterative(m, cur, Money::cents(81), 60000);
      if (closed >= kDefaultUptimeCap / 2 || iter >= kDefaultUptimeCap / 2)
        continue;  // both effectively unbounded paths tested elsewhere
      EXPECT_NEAR(static_cast<double>(iter), static_cast<double>(closed),
                  0.05 * static_cast<double>(closed) + 600.0);
    }
  }
}

TEST(Scenario, EightyChunksOverlapAsThePaperDescribes) {
  // "80 experiments over partially overlapping chunks": consecutive
  // starts must be closer than one experiment span.
  const Scenario scenario{VolatilityWindow::kLow, 0.50, 300, 80};
  const auto starts = scenario.starts();
  const Duration span = scenario.experiment(0).deadline;
  for (std::size_t i = 1; i < starts.size(); ++i)
    EXPECT_LT(starts[i] - starts[i - 1], span);
}

}  // namespace
}  // namespace redspot
