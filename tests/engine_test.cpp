// Engine tests: Algorithm 1's zone life-cycle, exact billing, checkpoint
// semantics, the deadline guarantee, policy behaviours and Large-bid.
//
// Traces are hand-built so every dollar is predictable; queue delay is 0
// unless a test says otherwise.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/engine.hpp"
#include "core/policies/large_bid.hpp"
#include "test_util.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::make_market;
using testing::run_fixed;
using testing::single_zone;
using testing::small_experiment;
using testing::step_series;

constexpr std::size_t kStepsPerHour = 12;

// --- Happy path ------------------------------------------------------------------

TEST(Engine, ConstantCheapPriceRunsPureSpot) {
  // 4 h of compute on a $0.30 zone with generous slack: 5 started hours
  // (the app finishes during the 5th after 4 Periodic checkpoints).
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 24 * kStepsPerHour)));
  const Experiment e = small_experiment(4.0, 0.5, 300);
  const RunResult r =
      run_fixed(market, e, PolicyKind::kPeriodic, Money::cents(81), {0});
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.met_deadline);
  EXPECT_FALSE(r.switched_to_on_demand);
  EXPECT_EQ(r.on_demand_cost, Money());
  // 4 h compute + 4 checkpoints x 300 s = 4h20m of wall time = 5 started
  // hours at $0.30 (the last one user-terminated at completion).
  EXPECT_EQ(r.total_cost, Money::dollars(1.50));
  EXPECT_EQ(r.checkpoints_committed, 4);
  EXPECT_EQ(r.out_of_bid_terminations, 0);
  EXPECT_EQ(r.finish_time, e.start + 4 * kHour + 4 * 300);
}

TEST(Engine, PriceAlwaysAboveBidGoesOnDemand) {
  const SpotMarket market =
      make_market(single_zone(constant_series(2.0, 24 * kStepsPerHour)));
  const Experiment e = small_experiment(4.0, 0.25, 300);
  const RunResult r =
      run_fixed(market, e, PolicyKind::kPeriodic, Money::cents(81), {0});
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.met_deadline);
  EXPECT_TRUE(r.switched_to_on_demand);
  EXPECT_EQ(r.spot_cost, Money());
  // From-scratch on-demand: 4 started hours at $2.40.
  EXPECT_EQ(r.total_cost, Money::dollars(9.60));
  // Switch happens when the slack (1 h) minus the reserved t_c has
  // drained; with nothing to checkpoint the reserve goes unused and the
  // run completes t_c before the deadline.
  EXPECT_EQ(r.finish_time, e.deadline_time() - 300);
}

TEST(Engine, HourBoundaryPricingLocksCycleStartRate) {
  // Price rises mid-hour but stays below the bid: the hour costs the
  // cycle-start rate, and the next hour the new rate.
  std::vector<std::pair<double, std::size_t>> segments = {
      {0.30, 6}, {0.60, kStepsPerHour}, {0.60, 18 * kStepsPerHour}};
  const SpotMarket market =
      make_market(single_zone(testing::step_series(
          {{0.30, 6}, {0.60, 30 * kStepsPerHour}})));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  testing::RunLog log;
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, {}, &log);
  EXPECT_TRUE(r.met_deadline);
  // Hour 1 at $0.30 (rate at start), hours 2-3 at $0.60.
  EXPECT_EQ(r.total_cost, Money::dollars(0.30 + 0.60 + 0.60));
  ASSERT_GE(log.items.size(), 3u);
  EXPECT_EQ(log.items[0].amount, Money::dollars(0.30));
}

TEST(Engine, OutOfBidPartialHourIsFree) {
  // Zone dies 30 minutes in; no checkpoint possible; everything re-runs
  // later. The first partial hour must cost nothing.
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, 6},            // 30 min cheap
      {2.00, 6},            // 30 min out-of-bid
      {0.30, 40 * kStepsPerHour},
  })));
  const Experiment e = small_experiment(2.0, 1.0, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.out_of_bid_terminations, 1);
  // Restarted at t=1h from scratch (no checkpoint existed): 2 h compute +
  // 1 checkpoint = 3 started hours at $0.30. The killed half hour: free.
  EXPECT_EQ(r.total_cost, Money::dollars(0.90));
  EXPECT_EQ(r.full_outages, 1);
}

TEST(Engine, RestartResumesFromCheckpoint) {
  // Run 1 h (one Periodic checkpoint at the hour boundary), die, recover:
  // progress resumes from the checkpoint, not zero.
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, kStepsPerHour + 3},  // up through the first ckpt
      {2.00, 3},                  // killed
      {0.30, 40 * kStepsPerHour},
  })));
  const Experiment e = small_experiment(3.0, 1.0, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_GE(r.checkpoints_committed, 1);
  EXPECT_EQ(r.restarts, 1);  // restart loaded a checkpoint
  // Committed 55 min; finish = 1h30m (restart time) + t_r + remaining
  // compute + later checkpoints. Just bound it: well before from-scratch.
  EXPECT_LT(r.finish_time - e.start, 4 * kHour + 30 * kMinute);
}

TEST(Engine, QueueDelayDelaysBillingAndProgress) {
  const SpotMarket market = make_market(
      single_zone(constant_series(0.30, 24 * kStepsPerHour)),
      /*queue_delay=*/600);
  const Experiment e = small_experiment(1.0, 0.5, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kMarkovDaly,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.queue_delay_total, 600);
  // Started at t=600; one compute hour finishes at 600 + 3600 (+ any ckpt).
  EXPECT_GE(r.finish_time, e.start + 600 + kHour);
}

// --- Deadline guarantee -------------------------------------------------------------

TEST(Engine, ForcedCheckpointBanksProgressNearDeadline) {
  // Markov-Daly on a flat history schedules huge intervals; the engine's
  // deadline machinery must still bank progress instead of wasting the
  // zone. Pure spot completion expected (price constant, cheap).
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 40 * kStepsPerHour)));
  // 1 h slack: enough to absorb the forced-checkpoint overhead (the hard
  // guarantee spends t_c of slack per banked commit).
  const Experiment e = small_experiment(4.0, 0.25, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kMarkovDaly,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_FALSE(r.switched_to_on_demand);
  EXPECT_EQ(r.on_demand_cost, Money());
  // The engine banked progress with forced checkpoints (Markov-Daly saw a
  // flat history and never scheduled its own).
  EXPECT_GE(r.checkpoints_committed, 3);
}

TEST(Engine, SlackSmallerThanOverheadsStillMeetsDeadline) {
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 40 * kStepsPerHour)));
  Experiment e = small_experiment(2.0, 0.0, 300);
  e.deadline = e.app.total_compute + 100;  // < t_c + t_r
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_TRUE(r.switched_to_on_demand);  // no room for any spot gamble
}

TEST(Engine, AdversarialSpikeAtSwitchStillMeetsDeadline) {
  // Zone runs cheap, then turns hostile exactly around the deadline
  // margin; the engine must bank what it can and finish on-demand by D.
  for (int hostile_hour = 1; hostile_hour <= 4; ++hostile_hour) {
    const SpotMarket market = make_market(single_zone(step_series({
        {0.30, static_cast<std::size_t>(hostile_hour) * kStepsPerHour},
        {2.30, 60 * kStepsPerHour},
    })));
    const Experiment e = small_experiment(4.0, 0.20, 300);
    const RunResult r = run_fixed(market, e, PolicyKind::kMarkovDaly,
                                  Money::cents(81), {0});
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.met_deadline) << "hostile_hour=" << hostile_hour;
  }
}

// --- Redundancy ----------------------------------------------------------------------

TEST(Engine, RedundantZonesAllStartWhenNoneActive) {
  const SpotMarket market = make_market(testing::zones({
      constant_series(0.30, 24 * kStepsPerHour),
      constant_series(0.35, 24 * kStepsPerHour),
      constant_series(0.40, 24 * kStepsPerHour),
  }));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0, 1, 2});
  EXPECT_TRUE(r.met_deadline);
  // All three zones start immediately and are billed: cost must be about
  // 3x the single-zone cost for this trace.
  EXPECT_EQ(r.total_cost, Money::dollars(3 * (0.30 + 0.35 + 0.40)));
}

TEST(Engine, WaitingZoneJoinsAtCheckpoint) {
  // Zone 1 becomes eligible at t=30min while zone 0 is running; the
  // algorithm starts it only at the next checkpoint commit (the Periodic
  // hour boundary).
  const SpotMarket market = make_market(testing::zones({
      constant_series(0.30, 24 * kStepsPerHour),
      step_series({{2.0, 6}, {0.40, 24 * kStepsPerHour - 6}}),
  }));
  const Experiment e = small_experiment(3.0, 0.5, 300);
  testing::RunLog log;
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0, 1}, {}, &log);
  EXPECT_TRUE(r.met_deadline);
  // Find zone 1's instance request: it must be at/after the first ckpt
  // commit (t ~ 1 h), not at its eligibility instant (30 min).
  const SimTime zone1_start = log.first_entry(ZoneState::kQueued, 1);
  ASSERT_FALSE(log.commits.empty());
  const SimTime first_commit = log.commits.front().at;
  ASSERT_NE(zone1_start, kNever);
  EXPECT_GE(zone1_start, first_commit);
  EXPECT_GT(zone1_start, e.start + 30 * kMinute);
}

TEST(Engine, SurvivesSingleZoneOutageWithRedundancy) {
  // Zone 0 dies for two hours; zone 1 carries the run; no on-demand.
  const SpotMarket market = make_market(testing::zones({
      step_series({{0.30, kStepsPerHour},
                   {2.0, 2 * kStepsPerHour},
                   {0.30, 24 * kStepsPerHour}}),
      constant_series(0.40, 27 * kStepsPerHour),
  }));
  const Experiment e = small_experiment(3.0, 0.34, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0, 1});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_FALSE(r.switched_to_on_demand);
  EXPECT_EQ(r.full_outages, 0);
  EXPECT_EQ(r.out_of_bid_terminations, 1);
}

// --- Policy behaviours ------------------------------------------------------------------

TEST(Engine, PeriodicCheckpointsOncePerBillingHour) {
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 24 * kStepsPerHour)));
  const Experiment e = small_experiment(5.0, 0.5, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0});
  // 5 h of compute + ckpt overhead -> ~5-6 billing hours, one ckpt per
  // boundary except the final partial hour.
  EXPECT_GE(r.checkpoints_committed, 5);
  EXPECT_LE(r.checkpoints_committed, 6);
}

TEST(Engine, RisingEdgeCheckpointsOnUpwardMove) {
  // Exactly one upward price movement below the bid: one checkpoint.
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, 6},
      {0.40, 42 * kStepsPerHour},  // single rising edge at t=30min
  })));
  Experiment e = small_experiment(2.0, 1.5, 300);
  const RunResult r = run_fixed(market, e, PolicyKind::kRisingEdge,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.checkpoints_committed, 1);
}

TEST(Engine, ThresholdIgnoresEdgesFarBelowBid) {
  // PriceThresh = (S_min + B)/2 = (0.30 + 2.40)/2 = 1.35: a rise to 0.40
  // must NOT trigger; a later rise to 1.50 must.
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, 6},
      {0.40, 6},                    // edge below PriceThresh: ignored
      {1.50, 6},                    // edge above PriceThresh: checkpoint
      {0.40, 42 * kStepsPerHour},
  })));
  Experiment e = small_experiment(2.0, 1.5, 300);
  e.history_span = kHour;  // S_min from the trace window
  testing::RunLog log;
  const RunResult r = run_fixed(market, e, PolicyKind::kThreshold,
                                Money::dollars(2.40), {0}, {}, &log);
  EXPECT_TRUE(r.met_deadline);
  const SimTime first_ckpt = log.first_entry(ZoneState::kCheckpointing);
  ASSERT_NE(first_ckpt, kNever);
  EXPECT_EQ(first_ckpt, e.start + 12 * kPriceStep);  // at the 1.50 edge
}

// --- Large-bid -----------------------------------------------------------------------------

TEST(Engine, LargeBidManualStopAndResume) {
  // Price exceeds L for hours 2-3; Large-bid must checkpoint near the end
  // of hour 1... (price crosses L mid-hour-1), pay that hour, sit out, and
  // resume when the price returns below L.
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, 9},                      // 45 min cheap
      {1.50, 2 * kStepsPerHour + 3},  // above L, below B=$100
      {0.30, 40 * kStepsPerHour},
  })));
  const Experiment e = small_experiment(3.0, 1.0, 300);
  FixedStrategy strategy(LargeBidPolicy::large_bid(), {0},
                         std::make_unique<LargeBidPolicy>(Money::cents(81)));
  Engine engine(market, e, strategy);
  testing::RunLog log;
  engine.add_observer(&log);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.out_of_bid_terminations, 0);  // B = $100: never out-of-bid
  // The point of the threshold: the price crossed L mid-hour, the ongoing
  // hour was still billed at its cheap start rate, the instance
  // checkpointed and stopped at the boundary — NO hour is ever billed at
  // the $1.50 rate.
  for (const LineItem& item : log.items)
    EXPECT_LE(item.amount, Money::dollars(1.0)) << to_string(item.kind);
  EXPECT_GE(r.checkpoints_committed, 1);
  // It sat out the expensive window instead of computing through it.
  EXPECT_GT(r.finish_time, e.start + 3 * kHour + 300);
}

TEST(Engine, LargeBidNaiveRidesTheSpike) {
  // Without a threshold the instance rides the $1.50 hours.
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, 9},
      {1.50, 2 * kStepsPerHour + 3},
      {0.30, 40 * kStepsPerHour},
  })));
  const Experiment e = small_experiment(3.0, 1.0, 300);
  FixedStrategy strategy(
      LargeBidPolicy::large_bid(), {0},
      std::make_unique<LargeBidPolicy>(LargeBidPolicy::no_threshold()));
  Engine engine(market, e, strategy);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  // Rode straight through: no manual stops, finished earlier but paid
  // ~2 expensive hours.
  EXPECT_GT(r.total_cost, Money::dollars(3.0));
}

// --- Accounting and options -------------------------------------------------------------------

TEST(Engine, LineItemsSumToTotal) {
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, kStepsPerHour + 3},
      {2.00, 6},
      {0.35, 40 * kStepsPerHour},
  })));
  const Experiment e = small_experiment(3.0, 0.5, 300);
  testing::RunLog log;
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, {}, &log);
  EXPECT_EQ(log.billed(), r.total_cost);
}

TEST(Engine, TerminationHookReportsEveryTeardownWithItsCause) {
  // The OutOfBidPartialHourIsFree trace: EC2 kills the zone at 30 min,
  // the recovery instance is released by the engine at completion.
  const SpotMarket market = make_market(single_zone(step_series({
      {0.30, 6},
      {2.00, 6},
      {0.30, 40 * kStepsPerHour},
  })));
  const Experiment e = small_experiment(2.0, 1.0, 300);
  testing::RunLog log;
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, {}, &log);
  ASSERT_EQ(log.terminations.size(), 2u);
  EXPECT_EQ(log.terminations[0].t, e.start + 30 * kMinute);
  EXPECT_EQ(log.terminations[0].cause, TerminationCause::kOutOfBid);
  EXPECT_EQ(log.terminations[1].t, r.finish_time);
  EXPECT_EQ(log.terminations[1].cause, TerminationCause::kUser);
  for (const testing::RunLog::Termination& term : log.terminations)
    EXPECT_EQ(term.zone, 0u);
  // Each fires after its teardown: the zone's last transition is to kDown.
  ASSERT_FALSE(log.transitions.empty());
  EXPECT_EQ(log.transitions.back().to, ZoneState::kDown);
  EXPECT_EQ(log.transitions.back().t, r.finish_time);
  // Fixed strategies never reconfigure.
  EXPECT_TRUE(log.config_changes.empty());
}

TEST(Engine, DeterministicAcrossRuns) {
  const SpotMarket market = make_market(
      single_zone(step_series({{0.30, kStepsPerHour}, {2.0, 6},
                               {0.30, 40 * kStepsPerHour}})),
      /*queue_delay=*/300);
  const Experiment e = small_experiment(3.0, 0.5, 300);
  const RunResult a = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0});
  const RunResult b = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0});
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.checkpoints_committed, b.checkpoints_committed);
}

TEST(Engine, ValidatesConfiguration) {
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 24 * kStepsPerHour)));
  const Experiment e = small_experiment(1.0, 0.5, 300);
  {
    FixedStrategy s(Money::cents(81), {7}, make_policy(PolicyKind::kPeriodic));
    Engine engine(market, e, s);
    EXPECT_THROW(engine.run(), CheckFailure);  // zone out of range
  }
  {
    FixedStrategy s(Money::cents(81), {0, 0},
                    make_policy(PolicyKind::kPeriodic));
    Engine engine(market, e, s);
    EXPECT_THROW(engine.run(), CheckFailure);  // duplicate zone
  }
  {
    FixedStrategy s(Money::cents(81), {0},
                    make_policy(PolicyKind::kPeriodic));
    Engine engine(market, e, s);
    (void)engine.run();
    EXPECT_THROW(engine.run(), CheckFailure);  // run() is single-shot
  }
}

TEST(Engine, RejectsTraceNotCoveringDeadline) {
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 12)));  // 1 h of trace
  const Experiment e = small_experiment(4.0, 0.5, 300);
  FixedStrategy s(Money::cents(81), {0}, make_policy(PolicyKind::kPeriodic));
  EXPECT_THROW(Engine(market, e, s), CheckFailure);
}

TEST(Engine, OnDemandBaseline) {
  const Experiment e = small_experiment(20.0, 0.15, 300);
  const RunResult r = run_on_demand_baseline(e, Money::dollars(2.40));
  EXPECT_EQ(r.total_cost, Money::dollars(48.00));
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.finish_time, e.start + 20 * kHour);
}

TEST(Engine, PartialHourOnDemandRoundsUp) {
  const Experiment e = small_experiment(1.25, 0.5, 300);
  const RunResult r = run_on_demand_baseline(e, Money::dollars(2.40));
  EXPECT_EQ(r.total_cost, Money::dollars(4.80));  // 2 started hours
}

}  // namespace
}  // namespace redspot
