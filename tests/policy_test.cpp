// Direct unit tests of the policy objects against a scripted EngineView —
// no engine in the loop, so each CheckpointCondition() /
// ScheduleNextCheckpoint() contract is pinned down in isolation.
#include <gtest/gtest.h>

#include <set>

#include "core/batch/model_pool.hpp"
#include "core/policies/index_track.hpp"
#include "core/policies/large_bid.hpp"
#include "core/policies/markov_daly.hpp"
#include "core/policies/periodic.hpp"
#include "core/policies/randomized_bid.hpp"
#include "core/policies/rising_edge.hpp"
#include "core/policies/threshold.hpp"
#include "core/policy.hpp"
#include "market/regime.hpp"
#include "markov/model.hpp"
#include "markov/uptime.hpp"
#include "test_util.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::step_series;

/// Scripted EngineView: every observable is a plain data member.
class FakeView final : public EngineView {
 public:
  FakeView()
      : market_(testing::make_market(
            testing::single_zone(constant_series(0.30, 48)))),
        experiment_(testing::small_experiment(4.0, 0.5, 300)) {}

  SimTime now() const override { return now_; }
  const Experiment& experiment() const override { return experiment_; }
  const SpotMarket& market() const override { return market_; }
  Money bid() const override { return bid_; }
  std::span<const std::size_t> zone_ids() const override { return zones_; }
  bool zone_running(std::size_t z) const override { return running_[z]; }
  bool any_zone_running() const override {
    for (std::size_t z : zones_)
      if (running_[z]) return true;
    return false;
  }
  Money price(std::size_t z) const override { return prices_[z]; }
  Money previous_price(std::size_t z) const override {
    return previous_prices_[z];
  }
  PriceView history(std::size_t) const override { return history_.view(); }
  Money min_observed_price(std::size_t) const override {
    return history_.min_price();
  }
  /// The from-scratch fit the engine's pooled answer equals bit-for-bit.
  Duration expected_uptime(std::size_t z) const override {
    return redspot::expected_uptime(
        build_markov_model(history(z), batch::ZoneModelPool::kMaxStates),
        price(z), bid());
  }
  Duration committed_progress() const override { return committed_; }
  Duration zone_progress(std::size_t z) const override {
    return progress_[z];
  }
  Duration leading_progress() const override {
    Duration best = committed_;
    for (std::size_t z : zones_)
      if (running_[z]) best = std::max(best, progress_[z]);
    return best;
  }
  SimTime leading_compute_since() const override { return compute_since_; }
  SimTime billing_cycle_end(std::size_t z) const override {
    return cycle_end_[z];
  }
  const MarketRegime& regime() const override { return regime_; }

  // Script state (public on purpose — it's a fake).
  SimTime now_ = 10'000;
  SpotMarket market_;
  Experiment experiment_;
  Money bid_ = Money::cents(81);
  std::vector<std::size_t> zones_{0};
  bool running_[3] = {true, false, false};
  Money prices_[3] = {Money::dollars(0.30), Money::dollars(0.30),
                      Money::dollars(0.30)};
  Money previous_prices_[3] = {Money::dollars(0.30), Money::dollars(0.30),
                               Money::dollars(0.30)};
  PriceSeries history_ = constant_series(0.30, 24);
  Duration committed_ = 0;
  Duration progress_[3] = {1000, 0, 0};
  SimTime compute_since_ = 9'000;
  SimTime cycle_end_[3] = {12'000, 0, 0};
  MarketRegime regime_ = MarketRegime::classic_2012();
};

// --- Periodic --------------------------------------------------------------------

TEST(PeriodicPolicy, SchedulesCheckpointBeforeLeaderBoundary) {
  FakeView view;
  PeriodicPolicy policy;
  EXPECT_FALSE(policy.checkpoint_condition(view));
  // Boundary at 12000, t_c = 300: checkpoint starts at 11700.
  EXPECT_EQ(policy.schedule_next_checkpoint(view), 11'700);
}

TEST(PeriodicPolicy, SkipsBoundaryCloserThanTc) {
  FakeView view;
  view.now_ = 11'800;  // within t_c of the boundary
  PeriodicPolicy policy;
  EXPECT_EQ(policy.schedule_next_checkpoint(view), 11'700 + kHour);
}

TEST(PeriodicPolicy, UsesLeadingZoneBoundary) {
  FakeView view;
  view.zones_ = {0, 1};
  view.running_[1] = true;
  view.progress_[1] = 5'000;  // zone 1 leads
  view.cycle_end_[1] = 13'500;
  PeriodicPolicy policy;
  EXPECT_EQ(policy.schedule_next_checkpoint(view), 13'200);
}

TEST(PeriodicPolicy, NoZoneRunningMeansNoSchedule) {
  FakeView view;
  view.running_[0] = false;
  PeriodicPolicy policy;
  EXPECT_EQ(policy.schedule_next_checkpoint(view), kNever);
}

// --- Rising Edge ------------------------------------------------------------------

TEST(RisingEdgePolicy, FiresOnUpwardMove) {
  FakeView view;
  view.prices_[0] = Money::dollars(0.35);
  view.previous_prices_[0] = Money::dollars(0.30);
  RisingEdgePolicy policy;
  EXPECT_TRUE(policy.checkpoint_condition(view));
  EXPECT_EQ(policy.schedule_next_checkpoint(view), kNever);
}

TEST(RisingEdgePolicy, IgnoresFlatAndDownwardMoves) {
  FakeView view;
  RisingEdgePolicy policy;
  EXPECT_FALSE(policy.checkpoint_condition(view));  // flat
  view.prices_[0] = Money::dollars(0.25);
  EXPECT_FALSE(policy.checkpoint_condition(view));  // down
}

TEST(RisingEdgePolicy, IgnoresEdgesOnIdleZones) {
  FakeView view;
  view.running_[0] = false;
  view.prices_[0] = Money::dollars(0.50);
  RisingEdgePolicy policy;
  EXPECT_FALSE(policy.checkpoint_condition(view));
}

// --- Threshold ----------------------------------------------------------------------

TEST(ThresholdPolicy, RequiresEdgeAbovePriceThresh) {
  FakeView view;
  view.bid_ = Money::dollars(2.40);
  view.history_ = constant_series(0.30, 24);  // S_min = 0.30
  // PriceThresh = (0.30 + 2.40)/2 = 1.35.
  ThresholdPolicy policy;
  view.previous_prices_[0] = Money::dollars(0.30);
  view.prices_[0] = Money::dollars(1.00);  // edge below threshold
  EXPECT_FALSE(policy.checkpoint_condition(view));
  view.prices_[0] = Money::dollars(1.40);  // edge above threshold
  EXPECT_TRUE(policy.checkpoint_condition(view));
}

TEST(ThresholdPolicy, SchedulesTimeThresholdFromComputeStart) {
  FakeView view;
  view.history_ = step_series({{0.30, 12}, {1.0, 2}, {0.30, 10}});
  ThresholdPolicy policy;
  const SimTime t = policy.schedule_next_checkpoint(view);
  ASSERT_NE(t, kNever);
  EXPECT_GT(t, view.now_);
  // The deadline is measured from the leading zone's compute start.
  view.compute_since_ += 500;
  EXPECT_EQ(policy.schedule_next_checkpoint(view), t + 500);
}

TEST(ThresholdPolicy, NoScheduleWithoutRunningZone) {
  FakeView view;
  view.running_[0] = false;
  view.compute_since_ = kNever;
  ThresholdPolicy policy;
  EXPECT_EQ(policy.schedule_next_checkpoint(view), kNever);
}

// --- Markov-Daly ---------------------------------------------------------------------

TEST(MarkovDalyPolicy, SchedulesDalyIntervalAhead) {
  FakeView view;
  // Flappy history: finite uptime, finite interval.
  view.history_ = step_series(
      {{0.30, 4}, {1.0, 2}, {0.30, 4}, {1.0, 2}, {0.30, 4}, {1.0, 2},
       {0.30, 4}, {1.0, 2}});
  MarkovDalyPolicy policy;
  EXPECT_FALSE(policy.checkpoint_condition(view));
  const SimTime t = policy.schedule_next_checkpoint(view);
  ASSERT_NE(t, kNever);
  EXPECT_GT(t, view.now_);
  EXPECT_LT(t, view.now_ + kDay);
}

TEST(MarkovDalyPolicy, CombinedUptimeGrowsWithZones) {
  FakeView view;
  view.history_ = step_series(
      {{0.30, 4}, {1.0, 2}, {0.30, 4}, {1.0, 2}, {0.30, 4}, {1.0, 2}});
  MarkovDalyPolicy policy;
  const Duration one = policy.combined_uptime(view);
  view.zones_ = {0, 1};
  view.running_[1] = true;
  const Duration two = policy.combined_uptime(view);
  EXPECT_GT(one, 0);
  EXPECT_GE(two, 2 * one - kPriceStep);  // identical zones: ~double
}

TEST(MarkovDalyPolicy, NoZonesMeansNever) {
  FakeView view;
  view.running_[0] = false;
  MarkovDalyPolicy policy;
  EXPECT_EQ(policy.schedule_next_checkpoint(view), kNever);
}

// --- Large-bid ------------------------------------------------------------------------

TEST(LargeBidPolicy, StopsAndResumesAroundThreshold) {
  FakeView view;
  LargeBidPolicy policy(Money::cents(81));
  EXPECT_TRUE(policy.wants_pre_boundary_checks());
  view.prices_[0] = Money::dollars(0.90);
  EXPECT_TRUE(policy.should_manual_stop(view, 0));
  EXPECT_FALSE(policy.should_resume(view, 0));
  view.prices_[0] = Money::dollars(0.81);
  EXPECT_FALSE(policy.should_manual_stop(view, 0));  // S == L: keep
  EXPECT_TRUE(policy.should_resume(view, 0));
}

TEST(LargeBidPolicy, NeverCheckpointsOnItsOwn) {
  FakeView view;
  LargeBidPolicy policy(Money::cents(81));
  EXPECT_FALSE(policy.checkpoint_condition(view));
  EXPECT_EQ(policy.schedule_next_checkpoint(view), kNever);
}

TEST(LargeBidPolicy, Constants) {
  EXPECT_EQ(LargeBidPolicy::large_bid(), Money::dollars(100.0));
  LargeBidPolicy naive(LargeBidPolicy::no_threshold());
  FakeView view;
  view.prices_[0] = Money::dollars(20.02);  // the worst observed price
  EXPECT_FALSE(naive.should_manual_stop(view, 0));
}

TEST(LargeBidPolicy, PerSecondBillingDisablesManualStops) {
  // The manual stop exists to dodge paying a full hour at a spiked rate;
  // per-second billing removes that commitment, so the policy rides
  // through excursions instead of churning stop/restart cycles.
  FakeView view;
  view.regime_ = MarketRegime::per_second();
  LargeBidPolicy policy(Money::cents(81));
  view.prices_[0] = Money::dollars(0.90);  // above L: classic would stop
  EXPECT_FALSE(policy.should_manual_stop(view, 0));
  view.regime_ = MarketRegime::classic_2012();
  EXPECT_TRUE(policy.should_manual_stop(view, 0));
}

// --- Randomized-bid ------------------------------------------------------------------

TEST(RandomizedBidPolicy, DrawIsDeterministicQuantizedAndInRange) {
  const Money lo = Money::cents(27);
  const Money hi = Money::dollars(2.40);
  EXPECT_EQ(RandomizedBidPolicy::draw_bid(42, lo, hi),
            RandomizedBidPolicy::draw_bid(42, lo, hi));
  std::set<std::int64_t> draws;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const Money d = RandomizedBidPolicy::draw_bid(seed, lo, hi);
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
    EXPECT_EQ(d.micros() % 1000, 0) << "off the $0.001 bid grid";
    draws.insert(d.micros());
  }
  // The draw is a distribution, not a point.
  EXPECT_GT(draws.size(), 20u);
  // Skewed toward the ceiling: most draws land in the upper half.
  const std::int64_t mid = (lo.micros() + hi.micros()) / 2;
  std::size_t upper = 0;
  for (const std::int64_t d : draws)
    if (d > mid) ++upper;
  EXPECT_GT(upper * 2, draws.size());
}

TEST(RandomizedBidPolicy, ChecksOnRisingTickIntoDangerBand) {
  FakeView view;
  view.bid_ = Money::cents(81);  // danger band starts at 0.8 * 0.81 = 0.648
  RandomizedBidPolicy policy;
  view.previous_prices_[0] = Money::dollars(0.30);
  view.prices_[0] = Money::dollars(0.70);  // rising into the band
  EXPECT_TRUE(policy.checkpoint_condition(view));
  view.prices_[0] = Money::dollars(0.60);  // rising, still below the band
  EXPECT_FALSE(policy.checkpoint_condition(view));
  view.previous_prices_[0] = Money::dollars(0.75);
  view.prices_[0] = Money::dollars(0.70);  // in the band but falling
  EXPECT_FALSE(policy.checkpoint_condition(view));
  view.previous_prices_[0] = Money::dollars(0.30);
  view.running_[0] = false;  // idle zones can't lose progress
  EXPECT_FALSE(policy.checkpoint_condition(view));
}

TEST(RandomizedBidPolicy, KeepsThePeriodicBoundaryBackstop) {
  FakeView view;
  RandomizedBidPolicy policy;
  // Boundary at 12000, t_c = 300: same pre-boundary slot as Periodic.
  EXPECT_EQ(policy.schedule_next_checkpoint(view), 11'700);
  view.running_[0] = false;
  EXPECT_EQ(policy.schedule_next_checkpoint(view), kNever);
}

// --- Index-track ---------------------------------------------------------------------

TEST(IndexTrackPolicy, TracksTheCheapestLanesWithDeterministicTies) {
  FakeView view;
  view.zones_ = {0, 1, 2};
  view.prices_[0] = Money::dollars(0.30);
  view.prices_[1] = Money::dollars(0.25);
  view.prices_[2] = Money::dollars(0.40);
  IndexTrackPolicy policy(/*target_active=*/1);
  EXPECT_TRUE(policy.wants_pre_boundary_checks());
  EXPECT_FALSE(policy.in_index(view, 0));
  EXPECT_TRUE(policy.in_index(view, 1));
  EXPECT_TRUE(policy.should_manual_stop(view, 0));
  EXPECT_TRUE(policy.should_resume(view, 1));
  // Ties break to the lower zone index, so the index stays a function.
  view.prices_[0] = Money::dollars(0.25);
  EXPECT_TRUE(policy.in_index(view, 0));
  EXPECT_FALSE(policy.in_index(view, 1));
  // A wider index admits both.
  IndexTrackPolicy two(/*target_active=*/2);
  EXPECT_TRUE(two.in_index(view, 1));
  EXPECT_FALSE(two.in_index(view, 2));
}

// --- Factory -------------------------------------------------------------------------

TEST(PolicyFactory, MakesEveryKind) {
  for (PolicyKind kind :
       {PolicyKind::kPeriodic, PolicyKind::kMarkovDaly,
        PolicyKind::kRisingEdge, PolicyKind::kThreshold}) {
    const auto policy = make_policy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), to_string(kind));
    EXPECT_FALSE(policy->wants_pre_boundary_checks());
  }
}

TEST(PolicyFactory, MakesTheZooEntries) {
  const auto randomized = make_policy(PolicyKind::kRandomizedBid);
  ASSERT_NE(randomized, nullptr);
  EXPECT_EQ(randomized->name(), "randomized-bid");
  const auto tracker = make_policy(PolicyKind::kIndexTrack);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->name(), "index-track");
  EXPECT_TRUE(tracker->wants_pre_boundary_checks());
}

}  // namespace
}  // namespace redspot
