// Tests of the engine's run-time reconfiguration rules (Section 7.1):
//   (1) a new permutation may be adopted when a zone was terminated;
//   (2) disruptive changes wait for the billing hour to end (with a
//       protective checkpoint at cycle-end - t_c);
//   (3) non-disruptive changes (same bid, active zones kept) apply
//       immediately at a price tick.
// A scripted Strategy drives the engine deterministically.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/engine.hpp"
#include "test_util.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::make_market;
using testing::single_zone;
using testing::small_experiment;
using testing::step_series;

/// Strategy scripted as: initial config, then from `switch_at` onward
/// request `next` at every decision point.
class ScriptedStrategy final : public Strategy {
 public:
  ScriptedStrategy(EngineConfig initial, EngineConfig next,
                   SimTime switch_at)
      : initial_(std::move(initial)),
        next_(std::move(next)),
        switch_at_(switch_at) {}

  EngineConfig initial(const EngineView&) override { return initial_; }

  std::optional<EngineConfig> reconsider(const EngineView& view,
                                         DecisionPoint point) override {
    last_point_ = point;
    ++decisions_;
    if (view.now() < switch_at_) return std::nullopt;
    return next_;
  }

  bool dynamic() const override { return true; }

  int decisions_ = 0;
  DecisionPoint last_point_ = DecisionPoint::kStart;

 private:
  EngineConfig initial_;
  EngineConfig next_;
  SimTime switch_at_;
};

TEST(EngineConfig, PolicySwitchAppliesImmediatelyAtTick) {
  // Same bid, same zone, different policy: rule 3 — adopt mid-hour.
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 24 * 12)));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  auto periodic = make_policy(PolicyKind::kPeriodic);
  auto markov = make_policy(PolicyKind::kMarkovDaly);
  ScriptedStrategy strategy(
      EngineConfig{Money::cents(81), {0}, periodic.get()},
      EngineConfig{Money::cents(81), {0}, markov.get()},
      /*switch_at=*/e.start + 30 * kMinute);
  Engine engine(market, e, strategy);
  testing::RunLog log;
  engine.add_observer(&log);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  ASSERT_GE(r.config_changes, 1);
  ASSERT_EQ(log.config_changes.size(),
            static_cast<std::size_t>(r.config_changes));
  const SimTime change_at = log.config_changes.front();
  // Applied at the first decision point at/after 30 min — within the
  // first billing hour, because it is non-disruptive.
  EXPECT_EQ(change_at, e.start + 30 * kMinute);
  // No instance was terminated for it.
  EXPECT_EQ(r.spot_cost, Money::dollars(0.30 * 3));  // 2h + ckpt = 3 hours
}

TEST(EngineConfig, ZoneAdditionIsNonDisruptive) {
  // Adding zone 1 keeps zone 0 running; zone 1 joins at the next commit.
  const SpotMarket market = make_market(testing::zones({
      constant_series(0.30, 24 * 12),
      constant_series(0.40, 24 * 12),
  }));
  const Experiment e = small_experiment(3.0, 0.5, 300);
  auto policy = make_policy(PolicyKind::kPeriodic);
  ScriptedStrategy strategy(
      EngineConfig{Money::cents(81), {0}, policy.get()},
      EngineConfig{Money::cents(81), {0, 1}, policy.get()},
      e.start + 30 * kMinute);
  Engine engine(market, e, strategy);
  testing::RunLog log;
  engine.add_observer(&log);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  // Zone 1 must have started (billed) at some point after the change.
  bool zone1_ran = false;
  for (const testing::RunLog::Transition& tr : log.transitions) {
    if (tr.zone == 1 && tr.from == ZoneState::kQueued) zone1_ran = true;
  }
  EXPECT_TRUE(zone1_ran);
  // And zone 0 was never user-terminated mid-run (only at completion).
  int zone0_user_terms = 0;
  for (const testing::RunLog::Termination& term : log.terminations) {
    if (term.zone == 0 && term.cause == TerminationCause::kUser)
      ++zone0_user_terms;
  }
  EXPECT_EQ(zone0_user_terms, 1);  // the completion cleanup
}

TEST(EngineConfig, BidChangeWaitsForBoundaryWithProtectiveCheckpoint) {
  // A bid change is disruptive (fixed-bid rule): requested at 30 min, it
  // must not apply until the billing hour ends, and the engine must
  // checkpoint at (boundary - t_c) so no progress is lost.
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 24 * 12)));
  const Experiment e = small_experiment(2.0, 1.0, 300);
  auto policy = make_policy(PolicyKind::kMarkovDaly);
  ScriptedStrategy strategy(
      EngineConfig{Money::cents(81), {0}, policy.get()},
      EngineConfig{Money::dollars(1.21), {0}, policy.get()},
      e.start + 30 * kMinute);
  Engine engine(market, e, strategy);
  testing::RunLog log;
  engine.add_observer(&log);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);

  ASSERT_FALSE(log.config_changes.empty());
  const SimTime change_at = log.config_changes.front();
  const SimTime protective_ckpt =
      log.first_entry(ZoneState::kCheckpointing);
  EXPECT_EQ(change_at, e.start + kHour);            // at the boundary
  EXPECT_EQ(protective_ckpt, e.start + kHour - 300);  // t_c before it
  // The old instance stopped cleanly at the boundary: exactly one
  // completed hour charged for it, no mid-cycle user partial.
  ASSERT_FALSE(log.items.empty());
  EXPECT_EQ(log.items[0].kind, LineItem::Kind::kSpotHour);
  // After the switch the zone re-queues and restarts from the protective
  // checkpoint.
  EXPECT_GE(r.restarts, 1);
}

TEST(EngineConfig, TerminationIsADecisionPoint) {
  // Zone 0 dies mid-cycle at t=30min; the strategy switches to zone 1 at
  // that decision point (rule 1) even though the bid changes — no need to
  // wait for a billing boundary.
  const SpotMarket market = make_market(testing::zones({
      step_series({{0.30, 6}, {2.00, 24 * 12 - 6}}),
      constant_series(0.40, 24 * 12),
  }));
  const Experiment e = small_experiment(2.0, 1.0, 300);
  auto policy = make_policy(PolicyKind::kPeriodic);
  ScriptedStrategy strategy(
      EngineConfig{Money::cents(81), {0}, policy.get()},
      EngineConfig{Money::cents(61), {1}, policy.get()},
      e.start + 30 * kMinute);
  Engine engine(market, e, strategy);
  testing::RunLog log;
  engine.add_observer(&log);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.out_of_bid_terminations, 1);
  ASSERT_FALSE(log.config_changes.empty());
  const SimTime change_at = log.config_changes.front();
  // The change applies at the very tick that killed zone 0.
  EXPECT_EQ(change_at, e.start + 30 * kMinute);
  EXPECT_FALSE(r.switched_to_on_demand);
}

TEST(EngineConfig, StrategyConsultedAtEveryTick) {
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 24 * 12)));
  const Experiment e = small_experiment(1.0, 0.5, 300);
  auto policy = make_policy(PolicyKind::kPeriodic);
  ScriptedStrategy strategy(
      EngineConfig{Money::cents(81), {0}, policy.get()},
      EngineConfig{Money::cents(81), {0}, policy.get()},  // same: no change
      kNever);
  Engine engine(market, e, strategy);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.config_changes, 0);
  // One consult per 5-minute tick for a ~65-minute run, plus
  // pre-boundary/boundary consults.
  EXPECT_GE(strategy.decisions_, 12);
}

TEST(EngineConfig, RemovingIdleZoneIsFree) {
  // Zone 1 is over-bid (never active); dropping it changes nothing billed.
  const SpotMarket market = make_market(testing::zones({
      constant_series(0.30, 24 * 12),
      constant_series(2.00, 24 * 12),
  }));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  auto policy = make_policy(PolicyKind::kPeriodic);
  ScriptedStrategy strategy(
      EngineConfig{Money::cents(81), {0, 1}, policy.get()},
      EngineConfig{Money::cents(81), {0}, policy.get()},
      e.start + 30 * kMinute);
  Engine engine(market, e, strategy);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  // Identical cost to a single-zone run: zone 1 never billed a cent.
  EXPECT_EQ(r.total_cost, Money::dollars(3 * 0.30));
}

}  // namespace
}  // namespace redspot
