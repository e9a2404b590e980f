// Market-regime contract suite (DESIGN.md §15): the regime catalog and
// its fingerprints, per-second billing boundaries around the 60 s
// minimum, refund-rule properties, the rebalance-warned zone lifecycle,
// the notice-aware deadline decision, and the journaled head-to-head
// matrix.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/deadline/deadline_monitor.hpp"
#include "core/engine.hpp"
#include "core/zone/zone_machine.hpp"
#include "core/zone/zone_state.hpp"
#include "exp/head_to_head.hpp"
#include "exp/scenario.hpp"
#include "journal/journal.hpp"
#include "market/billing.hpp"
#include "market/regime.hpp"
#include "market/spot_market.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

namespace fs = std::filesystem;

/// Fresh path under the test temp dir (any stale file removed).
std::string tmp_path(const std::string& name) {
  const fs::path p = fs::path(testing::TempDir()) / ("redspot_" + name);
  fs::remove(p);
  return p.string();
}

// --- catalog -----------------------------------------------------------------------

TEST(RegimeCatalog, NamedRegimesRoundTripThroughLookup) {
  const std::vector<MarketRegime>& catalog = regime_catalog();
  ASSERT_GE(catalog.size(), 4u);
  EXPECT_EQ(catalog.front().name, "classic-2012");
  for (const MarketRegime& r : catalog) {
    EXPECT_EQ(&regime_by_name(r.name), &r);
  }
  EXPECT_THROW(regime_by_name("ec2-2042"), CheckFailure);
}

TEST(RegimeCatalog, DefaultConstructedRegimeIsClassic2012) {
  // The whole refactor hangs on this: a default EngineOptions must mean
  // the paper's market, bit for bit.
  EXPECT_EQ(MarketRegime{}, MarketRegime::classic_2012());
  EXPECT_EQ(MarketRegime::classic(), MarketRegime::classic_2012());
  const MarketRegime& classic = MarketRegime::classic();
  EXPECT_EQ(classic.billing.granularity, BillingGranularity::kHourly);
  EXPECT_EQ(classic.billing.refund, RefundRule::kProviderForfeitsCycle);
  EXPECT_EQ(classic.rebalance_notice, 0);
}

TEST(RegimeCatalog, FingerprintsAreDistinctAndStable) {
  std::set<std::uint64_t> prints;
  for (const MarketRegime& r : regime_catalog())
    prints.insert(regime_fingerprint(r));
  EXPECT_EQ(prints.size(), regime_catalog().size());
  EXPECT_EQ(regime_fingerprint(MarketRegime{}),
            regime_fingerprint(MarketRegime::classic_2012()));
  // Every axis feeds the fingerprint (it keys journals and serve caches).
  MarketRegime tweaked = MarketRegime::per_second();
  tweaked.billing.minimum += 1;
  EXPECT_NE(regime_fingerprint(tweaked),
            regime_fingerprint(MarketRegime::per_second()));
}

// --- per-second billing ------------------------------------------------------------

BillingRules per_second_rules() { return MarketRegime::per_second().billing; }

TEST(PerSecondBilling, SixtySecondMinimumBoundary) {
  const Money rate = Money::cents(81);
  // T-1 / T / T+1 around the 60 s minimum: below it the minimum is owed,
  // at it exactly the minimum, past it the actual usage.
  const std::pair<Duration, Duration> cases[] = {{59, 60}, {60, 60}, {61, 61}};
  for (const auto& [stop, owed] : cases) {
    BillingLedger ledger;
    ledger.set_rules(per_second_rules());
    ledger.spot_started(0, 0, rate);
    ledger.spot_terminated(0, stop, TerminationCause::kUser);
    ASSERT_EQ(ledger.items().size(), 1u) << "stop at " << stop;
    EXPECT_EQ(ledger.items()[0].kind, LineItem::Kind::kSpotUsage);
    EXPECT_EQ(ledger.total(), prorate_hourly(rate, owed)) << "stop at " << stop;
  }
}

TEST(PerSecondBilling, MinimumIsChargedAtMostOncePerInstance) {
  const Money rate = Money::cents(81);
  BillingLedger ledger;
  ledger.set_rules(per_second_rules());
  ledger.spot_started(0, 0, rate);
  ledger.cycle_boundary(0, rate);  // first full hour satisfies the minimum
  ledger.spot_terminated(0, kHour + 30, TerminationCause::kUser);
  // 30 s into the second cycle bills 30 s, not another minute.
  EXPECT_EQ(ledger.total(), rate + prorate_hourly(rate, 30));

  // Zero usage past the minimum charges nothing at all.
  BillingLedger zero;
  zero.set_rules(per_second_rules());
  zero.spot_started(1, 0, rate);
  zero.cycle_boundary(1, rate);
  zero.spot_terminated(1, kHour, TerminationCause::kUser);
  EXPECT_EQ(zero.total(), rate);
  EXPECT_EQ(zero.items().size(), 1u);
}

TEST(PerSecondBilling, UserStopChargeIsMonotoneInUsage) {
  const Money rate = Money::cents(81);
  Money prev;
  for (const Duration stop : {1, 59, 60, 61, 600, 1800, 3599, 3600}) {
    BillingLedger ledger;
    ledger.set_rules(per_second_rules());
    ledger.spot_started(0, 0, rate);
    ledger.spot_terminated(0, stop, TerminationCause::kUser);
    EXPECT_GE(ledger.total(), prev) << "stop at " << stop;
    EXPECT_LE(ledger.total(), rate) << "never more than the locked hour";
    prev = ledger.total();
  }
}

TEST(PerSecondBilling, OnDemandUsageProratesWithMinimum) {
  const Money rate = Money::dollars(2.40);
  BillingLedger ledger;
  ledger.set_rules(per_second_rules());
  ledger.on_demand_usage(0, 45, rate);  // under the minimum
  ASSERT_EQ(ledger.items().size(), 1u);
  EXPECT_EQ(ledger.items()[0].kind, LineItem::Kind::kOnDemandUsage);
  EXPECT_EQ(ledger.total(), prorate_hourly(rate, 60));
  ledger.on_demand_usage(kHour, 3700, rate);  // one prorated item, not 2 hours
  ASSERT_EQ(ledger.items().size(), 2u);
  EXPECT_EQ(ledger.items()[1].amount, prorate_hourly(rate, 3700));
}

// --- refund rules ------------------------------------------------------------------

/// Total billed for one instance started at 0 and provider-killed at `t`.
Money provider_kill_total(BillingRules rules, SimTime t) {
  BillingLedger ledger;
  ledger.set_rules(rules);
  ledger.spot_started(0, 0, Money::cents(81));
  ledger.spot_terminated(0, t, TerminationCause::kOutOfBid);
  return ledger.total();
}

/// Same instance, user-stopped at `t`.
Money user_stop_total(BillingRules rules, SimTime t) {
  BillingLedger ledger;
  ledger.set_rules(rules);
  ledger.spot_started(0, 0, Money::cents(81));
  ledger.spot_terminated(0, t, TerminationCause::kUser);
  return ledger.total();
}

TEST(RefundRules, ClassicForfeitsTheInterruptedPartialCycle) {
  for (const Duration t : {1, 60, 1800, 3599}) {
    EXPECT_EQ(provider_kill_total(BillingRules{}, t), Money()) << t;
  }
}

TEST(RefundRules, ChargesUsageMakesInterruptionCostAUserStop) {
  // Property: under kProviderChargesUsage a provider kill bills exactly
  // like a user stop at the same instant, whatever the granularity.
  for (const Duration t : {1, 59, 60, 61, 1800, 3599}) {
    BillingRules hourly;
    hourly.refund = RefundRule::kProviderChargesUsage;
    EXPECT_EQ(provider_kill_total(hourly, t), user_stop_total(hourly, t)) << t;
    EXPECT_EQ(provider_kill_total(per_second_rules(), t),
              user_stop_total(per_second_rules(), t))
        << t;
  }
}

TEST(RefundRules, FreeFirstHourRefundsOnlyYoungInstances) {
  BillingRules rules;
  rules.refund = RefundRule::kFreeFirstHourOnInterrupt;
  // Killed inside the first hour: free, as in the 2017-2021 hybrid.
  EXPECT_EQ(provider_kill_total(rules, 3599), Money());
  // Exactly one hour old: the refund window has closed.
  EXPECT_EQ(provider_kill_total(rules, kHour), Money::cents(81));
  // A second-cycle kill bills the partial (instance age > 1 h) on top of
  // the completed first hour.
  BillingLedger ledger;
  ledger.set_rules(rules);
  ledger.spot_started(0, 0, Money::cents(81));
  ledger.cycle_boundary(0, Money::cents(81));
  ledger.spot_terminated(0, kHour + 10, TerminationCause::kOutOfBid);
  EXPECT_EQ(ledger.total(), Money::cents(81) * 2);
}

// --- rebalance-warned lifecycle ----------------------------------------------------

struct NullSink final : ZoneTransitionSink {
  void on_zone_transition(std::size_t, ZoneState, ZoneState) override {}
};

/// Drives a fresh machine to kRunning at t = 0.
ZoneMachine running_machine(NullSink& sink) {
  ZoneMachine m(0, &sink);
  m.wake();
  m.request();
  m.begin_compute(0, 0);
  return m;
}

TEST(RebalanceWarned, WarningKeepsTheZoneComputing) {
  NullSink sink;
  ZoneMachine m = running_machine(sink);
  m.warn_rebalance();
  EXPECT_EQ(m.state(), ZoneState::kRebalanceWarned);
  EXPECT_TRUE(m.rebalance_warned());
  EXPECT_TRUE(m.running());
  EXPECT_TRUE(m.computing());
  // Progress accrues through the notice window — that is the point of
  // the warning: free compute until the kill lands.
  EXPECT_EQ(m.progress(100), 100);
  m.terminate();
  EXPECT_EQ(m.state(), ZoneState::kDown);
  EXPECT_FALSE(m.rebalance_warned());  // cleared with the instance
}

TEST(RebalanceWarned, WarnedZoneCanStillCheckpointAndStaysWarned) {
  NullSink sink;
  ZoneMachine m = running_machine(sink);
  m.warn_rebalance();
  m.begin_checkpoint(100);  // the emergency write
  EXPECT_EQ(m.state(), ZoneState::kCheckpointing);
  EXPECT_TRUE(m.rebalance_warned());
  // The warning never rescinds: compute resumes into kRebalanceWarned.
  m.begin_compute(200, 100);
  EXPECT_EQ(m.state(), ZoneState::kRebalanceWarned);
}

TEST(RebalanceWarned, WarningDuringAWriteIsFlagOnly) {
  NullSink sink;
  ZoneMachine m = running_machine(sink);
  m.begin_checkpoint(50);
  m.warn_rebalance();
  EXPECT_EQ(m.state(), ZoneState::kCheckpointing);  // the write continues
  EXPECT_TRUE(m.rebalance_warned());
  m.begin_compute(150, 50);
  EXPECT_EQ(m.state(), ZoneState::kRebalanceWarned);
}

TEST(RebalanceWarned, WarningRequiresARunningInstance) {
  NullSink sink;
  ZoneMachine m(0, &sink);
  EXPECT_THROW(m.warn_rebalance(), CheckFailure);  // kDown
  m.wake();
  EXPECT_THROW(m.warn_rebalance(), CheckFailure);  // kWaiting
}

// --- notice-aware deadline decision ------------------------------------------------

TEST(DeadlineNotice, NoticeLeadChangesTheForcedCheckpointOdds) {
  DeadlineParams p;
  p.total_compute = hours(4);
  p.checkpoint_cost = 300;
  p.restart_cost = 300;
  p.deadline = hours(6);
  const Duration committed = 1000;
  const SimTime due = deadline_switch_time(p, committed);

  // Classic market: a forced write must buy more margin than its t_c.
  EXPECT_EQ(decide_at_trigger(p, committed, due, false, committed + 300),
            DeadlineAction::kSwitchToOnDemand);
  EXPECT_EQ(decide_at_trigger(p, committed, due, false, committed + 301),
            DeadlineAction::kForceCheckpoint);

  // A notice shorter than t_c leaves the gamble's odds unchanged...
  p.notice_lead = 120;
  EXPECT_EQ(decide_at_trigger(p, committed, due, false, committed + 300),
            DeadlineAction::kSwitchToOnDemand);
  EXPECT_EQ(decide_at_trigger(p, committed, due, false, committed + 301),
            DeadlineAction::kForceCheckpoint);
  // ...but an announced kill inside t_c means the write may not commit:
  // never gamble.
  EXPECT_EQ(decide_at_trigger(p, committed, due, false, committed + 5000,
                              /*leader_doom_at=*/due + 120),
            DeadlineAction::kSwitchToOnDemand);

  // A notice covering t_c guarantees an unannounced leader's write lands:
  // any positive gain is worth banking.
  p.notice_lead = 300;
  EXPECT_EQ(decide_at_trigger(p, committed, due, false, committed + 1),
            DeadlineAction::kForceCheckpoint);
  EXPECT_EQ(decide_at_trigger(p, committed, due, false, committed),
            DeadlineAction::kSwitchToOnDemand);  // nothing to bank
  // A doomed leader is judged by the warning it has left: exactly t_c
  // still fits the forced write, t_c - 1 does not.
  EXPECT_EQ(decide_at_trigger(p, committed, due, false, committed + 1,
                              /*leader_doom_at=*/due + 300),
            DeadlineAction::kForceCheckpoint);
  EXPECT_EQ(decide_at_trigger(p, committed, due, false, committed + 1,
                              /*leader_doom_at=*/due + 299),
            DeadlineAction::kSwitchToOnDemand);
  EXPECT_EQ(decide_at_trigger(p, committed, due, false, committed + 1,
                              /*leader_doom_at=*/due),
            DeadlineAction::kSwitchToOnDemand);
  // From nothing committed, the first commit makes the switch owe t_r:
  // the write must bank more than t_r even when it is sure to land.
  const SimTime first_due = deadline_switch_time(p, 0);
  EXPECT_EQ(decide_at_trigger(p, 0, first_due, false, 300),
            DeadlineAction::kSwitchToOnDemand);
  EXPECT_EQ(decide_at_trigger(p, 0, first_due, false, 301),
            DeadlineAction::kForceCheckpoint);
  p.restart_cost = 900;
  EXPECT_EQ(decide_at_trigger(p, 0, deadline_switch_time(p, 0), false, 900),
            DeadlineAction::kSwitchToOnDemand);
  // An in-flight write always wins the trigger.
  EXPECT_EQ(decide_at_trigger(p, committed, due, true, committed + 1),
            DeadlineAction::kWait);
}

TEST(DeadlineNotice, FirstForcedCommitUnderALongNoticeKeepsTheDeadline) {
  // A 900 s notice covers t_c = 900 s, so the trigger forces a write even
  // for a small gain. In this run nothing is committed when the trigger
  // fires, and a forced write banking less than t_r would leave the
  // on-demand finish past the deadline (the engine's guarantee CHECK).
  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 900, 80};
  EngineOptions options;
  options.regime.rebalance_notice = 900;
  FixedStrategy strategy(Money::cents(81), {1},
                         make_policy(PolicyKind::kMarkovDaly));
  Engine engine(market, scenario.experiment(56), strategy, options);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.met_deadline);
  EXPECT_TRUE(r.switched_to_on_demand);
}

// --- head-to-head matrix -----------------------------------------------------------

TEST(HeadToHead, MatrixIsJournaledAndResumable) {
  const SpotMarket market(paper_traces(7), cc2_instance(), QueueDelayModel());
  HeadToHeadOptions options;
  options.scenario = Scenario{VolatilityWindow::kHigh, 0.15, 300, 2};
  options.regimes = {MarketRegime::classic_2012(), MarketRegime::per_second(),
                     MarketRegime::rebalance()};
  const std::string path = tmp_path("h2h.journal");

  HeadToHeadResult first;
  {
    RunJournal journal(path);
    options.journal = &journal;
    first = run_head_to_head(market, options);
  }
  // 9 roster rows per regime; >= 8 policies x >= 3 regimes is the
  // acceptance floor of the flagship table.
  ASSERT_EQ(first.cells.size(), 27u);
  std::set<std::string> policies;
  std::set<std::string> regimes;
  for (const HeadToHeadCell& c : first.cells) {
    policies.insert(c.policy);
    regimes.insert(c.regime);
    EXPECT_EQ(c.n, 2u);
    EXPECT_LE(c.cost_lo, c.mean_cost);
    EXPECT_GE(c.cost_hi, c.mean_cost);
    EXPECT_GE(c.miss_rate, c.miss_lo);
    EXPECT_LE(c.miss_rate, c.miss_hi);
  }
  EXPECT_EQ(policies.size(), 9u);
  EXPECT_EQ(regimes.size(), 3u);
  EXPECT_GT(first.chunks_recomputed, 0u);  // cold journal: real work

  // Re-running against the surviving journal replays every chunk and
  // reproduces the table bit for bit.
  HeadToHeadResult second;
  {
    RunJournal journal(path);
    options.journal = &journal;
    second = run_head_to_head(market, options);
  }
  EXPECT_EQ(second.chunks_recomputed, 0u);
  EXPECT_EQ(second.chunks_replayed,
            first.chunks_replayed + first.chunks_recomputed);
  ASSERT_EQ(second.cells.size(), first.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    const HeadToHeadCell& x = first.cells[i];
    const HeadToHeadCell& y = second.cells[i];
    EXPECT_EQ(x.regime, y.regime);
    EXPECT_EQ(x.policy, y.policy);
    EXPECT_EQ(x.mean_cost, y.mean_cost) << x.regime << "/" << x.policy;
    EXPECT_EQ(x.cost_lo, y.cost_lo);
    EXPECT_EQ(x.cost_hi, y.cost_hi);
    EXPECT_EQ(x.miss_rate, y.miss_rate);
  }
  EXPECT_EQ(first.drawn_bid, second.drawn_bid);
}

}  // namespace
}  // namespace redspot
