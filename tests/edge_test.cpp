// Edge-case coverage: terminations in transient zone states, billing-guard
// violations, boundary values of the small utilities, and monotonicity
// properties of the Adaptive estimator.
#include <gtest/gtest.h>

#include <sstream>

#include "core/adaptive/estimator.hpp"
#include "core/engine.hpp"
#include "test_util.hpp"
#include "trace/availability.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::make_market;
using testing::run_fixed;
using testing::single_zone;
using testing::small_experiment;
using testing::step_series;

TEST(EngineEdge, TerminationDuringRestartLosesNoCommittedProgress) {
  // Zone runs 1h05m (one ckpt committed), dies, recovers at t=1h40m with
  // t_r=300 in flight, and dies AGAIN at 1h45m mid-restart. The committed
  // checkpoint must survive both.
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, 13},  // up through the first boundary ckpt (55m-1h)
      {2.00, 7},   // dead until 1h40m
      {0.30, 1},   // recovery window: restart starts (t_r = 300)
      {2.00, 6},   // killed again during/after the restart
      {0.30, 60 * 12},
  })));
  const Experiment e = small_experiment(3.0, 1.5, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.out_of_bid_terminations, 2);
  EXPECT_GE(r.checkpoints_committed, 1);
  // The final recovery still loads the hour-1 checkpoint.
  EXPECT_GE(r.restarts, 1);
}

TEST(EngineEdge, TerminationWhileQueuedIsFree) {
  // Queue delay 600 s; the price spikes 5 min after the request, while
  // the instance is still queued: no charge, no restart.
  const SpotMarket market = make_market(
      single_zone(step_series({{0.30, 1}, {2.00, 6}, {0.30, 60 * 12}})),
      /*queue_delay=*/600);
  const Experiment e = small_experiment(1.0, 2.0, 300);
  testing::RunLog log;
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, {}, &log);
  EXPECT_TRUE(r.met_deadline);
  // First charge only happens once the second request materializes.
  for (const LineItem& item : log.items)
    EXPECT_EQ(item.amount, Money::dollars(0.30));
}

TEST(EngineEdge, OnDemandDurationIncludesRestartWhenCheckpointed) {
  // Run ~1h on spot (one committed hour-boundary ckpt), then the market
  // turns hostile forever: the on-demand remainder includes t_r.
  const SpotMarket market = make_market(single_zone(
      step_series({{0.30, 13}, {2.00, 60 * 12}})));
  const Experiment e = small_experiment(4.0, 0.5, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_TRUE(r.switched_to_on_demand);
  ASSERT_GE(r.checkpoints_committed, 1);
  // Committed 55 min; remaining = 4h - 55m + t_r = 3h10m -> 4 od hours.
  EXPECT_EQ(r.on_demand_seconds, 4 * kHour - 55 * kMinute + 300);
  EXPECT_EQ(r.on_demand_cost, Money::dollars(4 * 2.40));
}

TEST(BillingEdge, GuardsOnMisuse) {
  BillingLedger ledger;
  EXPECT_THROW(ledger.spot_stopped_at_boundary(0), CheckFailure);
  EXPECT_THROW(ledger.cycle_boundary(0, Money::dollars(0.3)), CheckFailure);
  ledger.spot_started(0, 0, Money::dollars(0.3));
  EXPECT_THROW(ledger.spot_started(0, 5, Money::dollars(0.3)),
               CheckFailure);
}

TEST(UtilityEdge, MoneyStreamOperator) {
  std::ostringstream os;
  os << Money::dollars(2.40) << " " << Money::cents(27);
  EXPECT_EQ(os.str(), "$2.40 $0.27");
}

TEST(UtilityEdge, AsciiBarRejectsEmpty) {
  EXPECT_THROW(ascii_bar({}, kPriceStep), CheckFailure);
  const PriceSeries s = constant_series(0.3, 2);
  const auto segs =
      availability_segments(s, Money::cents(81), 0, s.end());
  EXPECT_THROW(ascii_bar(segs, 0), CheckFailure);
}

TEST(UtilityEdge, NextChangeFromFinalSample) {
  const PriceSeries s = step_series({{0.3, 2}, {0.5, 1}});
  EXPECT_EQ(s.next_change(2 * kPriceStep), kNever);
}

TEST(EstimatorProperty, ProgressRateNonDecreasingInBid) {
  // On the calibrated traces, raising the bid can only help availability
  // and therefore the predicted progress rate for a fixed policy/zones.
  const ZoneTraceSet traces = paper_traces(42).window(33 * kDay, 35 * kDay);
  std::vector<Money> grid;
  for (Money b = Money::cents(27); b <= Money::dollars(3.07);
       b += Money::cents(40))
    grid.push_back(b);
  const HistoryStats hist(traces, traces.start(), traces.end(), grid);
  EstimatorInputs in;
  in.remaining_compute = 20 * kHour;
  in.remaining_time = 23 * kHour;
  double prev = -1.0;
  for (std::size_t b = 0; b < grid.size(); ++b) {
    const auto e = estimate_permutation(hist, b, {0, 1, 2},
                                        PolicyKind::kPeriodic, in);
    EXPECT_GE(e.progress_rate, prev - 0.05) << grid[b].str();
    prev = e.progress_rate;
  }
}

TEST(EstimatorProperty, MoreZonesNeverReducePredictedRate) {
  const ZoneTraceSet traces = paper_traces(42).window(33 * kDay, 35 * kDay);
  const HistoryStats hist(traces, traces.start(), traces.end(),
                          {Money::cents(81)});
  EstimatorInputs in;
  in.remaining_compute = 20 * kHour;
  in.remaining_time = 23 * kHour;
  const auto one =
      estimate_permutation(hist, 0, {0}, PolicyKind::kMarkovDaly, in);
  const auto three = estimate_permutation(hist, 0, {0, 1, 2},
                                          PolicyKind::kMarkovDaly, in);
  EXPECT_GE(three.progress_rate + 0.05, one.progress_rate);
  EXPECT_GE(three.cost_rate, one.cost_rate);
}

TEST(EngineEdge, ZeroSlackDeadlineEqualsComputeGoesStraightOnDemand) {
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 60 * 12)));
  Experiment e = small_experiment(2.0, 0.0, 300);  // D == C
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_TRUE(r.switched_to_on_demand);
  EXPECT_EQ(r.spot_cost, Money());
  EXPECT_EQ(r.finish_time, e.deadline_time());
}

TEST(EngineEdge, IterationGranularityLimitsCheckpointValue) {
  // 30-minute iterations: a checkpoint can only capture whole iterations.
  const SpotMarket market = make_market(single_zone(
      step_series({{0.30, 13}, {2.00, 6}, {0.30, 60 * 12}})));
  Experiment e = small_experiment(2.0, 2.0, 300);
  e.app.iteration_time = 30 * kMinute;
  testing::RunLog log;
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, {}, &log);
  EXPECT_TRUE(r.met_deadline);
  // Committed values land on 30-minute marks: the hour-boundary Periodic
  // checkpoint at 55 min of progress can only capture 30 min.
  bool saw_ckpt = false;
  for (const CheckpointCommit& c : log.commits) {
    if (c.outcome != CheckpointCommit::Outcome::kCommitted) continue;
    saw_ckpt = true;
    EXPECT_EQ(c.progress % (30 * kMinute), 0)
        << format_duration(c.progress);
  }
  EXPECT_TRUE(saw_ckpt);
}

TEST(TerminationNoticeEdge, NoticeShorterThanCheckpointNeverStartsOne) {
  // Warning of 120 s with t_c = 300 s: no emergency checkpoint can fit, so
  // none may start — the doomed zone just computes out its 120 s and dies
  // exactly at notice expiry.
  const SpotMarket market = make_market(single_zone(
      step_series({{0.30, 6}, {2.00, 6}, {0.30, 60 * 12}})));
  const Experiment e = small_experiment(2.0, 2.0, 300);
  EngineOptions options;
  options.regime.rebalance_notice = 120;
  testing::RunLog log;
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, options, &log);
  EXPECT_TRUE(r.met_deadline);
  // Price crosses the bid at t = 30 min; death at 30 min + 120 s.
  const SimTime doom = 30 * kMinute + 120;
  for (const testing::RunLog::Transition& tr : log.transitions) {
    if (tr.t > doom) break;  // recovery may legitimately checkpoint later
    EXPECT_NE(tr.to, ZoneState::kCheckpointing)
        << "checkpoint started at " << format_time(tr.t)
        << " despite notice < t_c";
  }
  ASSERT_FALSE(log.terminations.empty());
  EXPECT_EQ(log.terminations[0].t, doom);
  EXPECT_EQ(log.terminations[0].cause, TerminationCause::kOutOfBid);
  // The doomed 120 s still count as (free) billed up-time.
  EXPECT_EQ(r.out_of_bid_terminations, 1);
}

TEST(TerminationNoticeEdge, NoticeArrivingMidCheckpointLetsTheWriteFinish) {
  // Periodic starts its boundary checkpoint at 55 min; the price crosses
  // the bid at that same tick, so the notice finds the write in flight.
  // The write ends at the hour boundary — inside the 300 s warning — and
  // must commit; the recovery then loads it instead of starting over.
  const SpotMarket market = make_market(single_zone(
      step_series({{0.30, 11}, {2.00, 6}, {0.30, 60 * 12}})));
  const Experiment e = small_experiment(2.0, 2.0, 300);
  EngineOptions options;
  options.regime.rebalance_notice = 300;
  const RunResult with = run_fixed(market, e, PolicyKind::kPeriodic,
                                   Money::cents(81), {0}, options);
  EXPECT_TRUE(with.met_deadline);
  EXPECT_GE(with.checkpoints_committed, 1);
  EXPECT_EQ(with.restarts, 1);

  // Without the notice the same crossing cuts the write mid-flight:
  // nothing commits and the recovery restarts from scratch.
  const RunResult without = run_fixed(market, e, PolicyKind::kPeriodic,
                                      Money::cents(81), {0});
  EXPECT_EQ(without.restarts, 0);
  EXPECT_LT(with.finish_time, without.finish_time);
}

}  // namespace
}  // namespace redspot
