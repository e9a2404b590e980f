// Fault-injection subsystem: plan validation, injector determinism and
// stream independence, engine behaviour under each fault class (the
// deadline guarantee must survive all of them), and the RunValidator /
// AuditObserver auditors.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/check.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/engine.hpp"
#include "core/policies/large_bid.hpp"
#include "fault/audit_observer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/run_validator.hpp"
#include "test_util.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

using testing::make_market;
using testing::run_fixed;
using testing::single_zone;
using testing::small_experiment;
using testing::step_series;

// A trace with one mid-run outage: up 65 min, dead 30 min, then cheap for
// the rest of the experiment. Forces one termination and one recovery.
PriceSeries outage_trace() {
  return step_series({{0.30, 13}, {2.00, 6}, {0.30, 60 * 12}});
}

// --- FaultPlan -----------------------------------------------------------------

TEST(FaultPlan, DefaultIsDisabledAndValid) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, AnyRateOrOutageEnables) {
  FaultPlan plan;
  plan.request_rejection_rate = 0.1;
  EXPECT_TRUE(plan.enabled());
  FaultPlan outage;
  outage.store_outages.push_back({100, 200});
  EXPECT_TRUE(outage.enabled());
}

TEST(FaultPlan, ValidateRejectsBadConfigurations) {
  {
    FaultPlan p;
    p.ckpt_write_failure_rate = 1.5;
    EXPECT_THROW(p.validate(), CheckFailure);
  }
  {
    FaultPlan p;
    p.restart_failure_rate = -0.1;
    EXPECT_THROW(p.validate(), CheckFailure);
  }
  {
    FaultPlan p;  // failure + corruption cannot exceed one write
    p.ckpt_write_failure_rate = 0.7;
    p.ckpt_corruption_rate = 0.7;
    EXPECT_THROW(p.validate(), CheckFailure);
  }
  {
    FaultPlan p;
    p.store_outages.push_back({200, 100});  // inverted window
    EXPECT_THROW(p.validate(), CheckFailure);
  }
  {
    FaultPlan p;
    p.backoff.base = 0;
    EXPECT_THROW(p.validate(), CheckFailure);
  }
  {
    FaultPlan p;
    p.backoff.cap = p.backoff.base - 1;
    EXPECT_THROW(p.validate(), CheckFailure);
  }
  {
    FaultPlan p;
    p.backoff.jitter = 1.5;
    EXPECT_THROW(p.validate(), CheckFailure);
  }
}

// --- FaultInjector -------------------------------------------------------------

TEST(FaultInjector, DeterministicAcrossInstances) {
  FaultPlan plan;
  plan.ckpt_write_failure_rate = 0.3;
  plan.request_rejection_rate = 0.4;
  FaultInjector a(plan, 7);
  FaultInjector b(plan, 7);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.checkpoint_write_fails(0), b.checkpoint_write_fails(0));
    EXPECT_EQ(a.request_rejected(), b.request_rejected());
    EXPECT_EQ(a.backoff_delay(i % 8 + 1), b.backoff_delay(i % 8 + 1));
  }
}

TEST(FaultInjector, ZeroRateQueriesNeverFire) {
  FaultInjector injector(FaultPlan{}, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.checkpoint_write_fails(i * 1000));
    EXPECT_FALSE(injector.checkpoint_corrupts());
    EXPECT_FALSE(injector.restart_fails());
    EXPECT_FALSE(injector.request_rejected());
    const FaultInjector::NoticeDelivery notice =
        injector.notice_delivery(300);
    EXPECT_FALSE(notice.dropped);
    EXPECT_EQ(notice.lag, 0);
  }
}

TEST(FaultInjector, ClassStreamsAreIndependent) {
  // Enabling checkpoint corruption must not change the rejection decision
  // sequence: each class draws from its own stream.
  FaultPlan only_rejections;
  only_rejections.request_rejection_rate = 0.5;
  FaultPlan both = only_rejections;
  both.ckpt_corruption_rate = 0.5;
  FaultInjector a(only_rejections, 11);
  FaultInjector b(both, 11);
  for (int i = 0; i < 500; ++i) {
    b.checkpoint_corrupts();  // interleave draws from the other class
    EXPECT_EQ(a.request_rejected(), b.request_rejected());
  }
}

TEST(FaultInjector, OutageWindowsFailWritesDeterministically) {
  FaultPlan plan;
  plan.store_outages.push_back({1000, 2000});
  plan.store_outages.push_back({5000, 6000});
  FaultInjector injector(plan, 3);
  EXPECT_FALSE(injector.store_unreachable(999));
  EXPECT_TRUE(injector.store_unreachable(1000));
  EXPECT_TRUE(injector.store_unreachable(1999));
  EXPECT_FALSE(injector.store_unreachable(2000));  // half-open window
  EXPECT_TRUE(injector.store_unreachable(5500));
  // Inside a window every write fails regardless of the random rate.
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(injector.checkpoint_write_fails(1500));
  EXPECT_FALSE(injector.checkpoint_write_fails(3000));
}

TEST(FaultInjector, BackoffGrowsExponentiallyAndCaps) {
  FaultPlan plan;
  plan.request_rejection_rate = 1.0;
  plan.backoff.base = 30;
  plan.backoff.cap = 600;
  plan.backoff.jitter = 0.0;
  FaultInjector injector(plan, 5);
  EXPECT_EQ(injector.backoff_delay(1), 30);
  EXPECT_EQ(injector.backoff_delay(2), 60);
  EXPECT_EQ(injector.backoff_delay(3), 120);
  EXPECT_EQ(injector.backoff_delay(5), 480);
  EXPECT_EQ(injector.backoff_delay(6), 600);   // capped
  EXPECT_EQ(injector.backoff_delay(40), 600);  // no overflow past the cap

  plan.backoff.jitter = 0.5;
  FaultInjector jittered(plan, 5);
  for (int i = 0; i < 50; ++i) {
    const Duration d = jittered.backoff_delay(2);
    EXPECT_GE(d, 60);
    EXPECT_LE(d, 90);  // base*2 stretched by at most 50%
  }
}

// --- Engine under faults -------------------------------------------------------

TEST(EngineFaults, AllZeroPlanMatchesDefaultRunExactly) {
  const SpotMarket market = make_market(single_zone(outage_trace()));
  const Experiment e = small_experiment(2.0, 2.0, 300);
  const RunResult base = run_fixed(market, e, PolicyKind::kPeriodic,
                                   Money::cents(81), {0});
  EngineOptions zero_plan;
  zero_plan.faults = FaultPlan{};
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, zero_plan);
  EXPECT_EQ(r.total_cost, base.total_cost);
  EXPECT_EQ(r.finish_time, base.finish_time);
  EXPECT_EQ(r.checkpoints_committed, base.checkpoints_committed);
  EXPECT_EQ(r.restarts, base.restarts);
  EXPECT_EQ(r.queue_delay_total, base.queue_delay_total);
  EXPECT_EQ(r.committed_progress, base.committed_progress);
  EXPECT_FALSE(r.faults.any());
}

TEST(EngineFaults, CheckpointWriteFailuresFallBackToOnDemandGuarantee) {
  const SpotMarket market = make_market(single_zone(outage_trace()));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  EngineOptions options;
  options.faults.ckpt_write_failure_rate = 1.0;  // every write fails
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, options);
  EXPECT_TRUE(r.met_deadline);
  EXPECT_GT(r.faults.ckpt_write_failures, 0);
  EXPECT_EQ(r.checkpoints_committed, 0);
  EXPECT_EQ(r.committed_progress, 0);
  RunValidator(e, market.on_demand_rate()).check(r);
}

TEST(EngineFaults, CorruptWritesRollBackToPreviousGoodCheckpoint) {
  const SpotMarket market = make_market(single_zone(outage_trace()));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  EngineOptions options;
  options.faults.ckpt_corruption_rate = 1.0;  // every commit rolls back
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, options);
  EXPECT_TRUE(r.met_deadline);
  EXPECT_GT(r.faults.ckpt_corruptions, 0);
  EXPECT_EQ(r.checkpoints_committed, 0);
  EXPECT_EQ(r.committed_progress, 0);
  // The rolled-back writes are visible in the log as invalidated entries.
  int invalid = 0;
  for (const Checkpoint& c : r.checkpoint_log) invalid += c.valid ? 0 : 1;
  EXPECT_EQ(invalid, r.faults.ckpt_corruptions);
  RunValidator(e, market.on_demand_rate()).check(r);
}

TEST(EngineFaults, RequestRejectionsBackOffWithoutBreakingTheDeadline) {
  const SpotMarket market = make_market(single_zone(outage_trace()));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  EngineOptions options;
  options.faults.request_rejection_rate = 1.0;  // capacity never appears
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, options);
  EXPECT_TRUE(r.met_deadline);
  EXPECT_TRUE(r.switched_to_on_demand);
  EXPECT_GT(r.faults.request_rejections, 0);
  EXPECT_GT(r.faults.backoff_total, 0);
  EXPECT_EQ(r.spot_cost, Money());  // nothing was ever fulfilled
  RunValidator(e, market.on_demand_rate()).check(r);
}

TEST(EngineFaults, RestartFailuresRetryTheLoad) {
  const SpotMarket market = make_market(single_zone(outage_trace()));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  EngineOptions options;
  options.faults.restart_failure_rate = 1.0;  // every load fails
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, options);
  EXPECT_TRUE(r.met_deadline);
  // The recovery after the outage keeps retrying the load until the
  // deadline margin forces on-demand; no load ever completes.
  EXPECT_GT(r.faults.restart_failures, 0);
  EXPECT_EQ(r.restarts, 0);
  RunValidator(e, market.on_demand_rate()).check(r);
}

TEST(EngineFaults, StoreOutageWindowFailsOnlyWritesInsideIt) {
  const SpotMarket market = make_market(single_zone(
      step_series({{0.30, 60 * 12}})));
  const Experiment e = small_experiment(3.0, 0.5, 300);
  EngineOptions options;
  // Periodic commits at each hour boundary; blank out the second hour's.
  options.faults.store_outages.push_back({kHour + 1, 3 * kHour - 1});
  const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                Money::cents(81), {0}, options);
  EXPECT_TRUE(r.met_deadline);
  EXPECT_GT(r.faults.ckpt_write_failures, 0);
  EXPECT_GT(r.checkpoints_committed, 0);  // writes outside the window land
  RunValidator(e, market.on_demand_rate()).check(r);
}

// Every market with a termination notice: the catalog's notice regimes and
// the Appendix-A what-if (the classic market given a 300 s notice). All of
// them announce kills through the same path, so the notice faults must act
// on each.
std::vector<MarketRegime> notice_regimes() {
  MarketRegime appendix_a;
  appendix_a.rebalance_notice = 300;
  return {appendix_a, MarketRegime::rebalance(), MarketRegime::modern_multi()};
}

TEST(EngineFaults, DroppedNoticeKillsAbruptly) {
  const SpotMarket market = make_market(single_zone(outage_trace()));
  const Experiment e = small_experiment(2.0, 2.0, 300);
  for (const MarketRegime& regime : notice_regimes()) {
    SCOPED_TRACE(regime.name + " notice " +
                 format_duration(regime.rebalance_notice));
    EngineOptions with_notice;
    with_notice.regime = regime;
    const RunResult clean = run_fixed(market, e, PolicyKind::kPeriodic,
                                      Money::cents(81), {0}, with_notice);
    EngineOptions dropped = with_notice;
    dropped.faults.notice_drop_rate = 1.0;
    const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                  Money::cents(81), {0}, dropped);
    EXPECT_TRUE(r.met_deadline);
    EXPECT_GT(r.faults.notices_dropped, 0);
    // The dropped notice forfeits any emergency checkpoint the clean run
    // gets (a notice >= t_c fits one), so recovery starts from scratch and
    // finishes no earlier.
    EXPECT_LE(r.restarts, clean.restarts);
    EXPECT_GE(r.finish_time, clean.finish_time);
    RunValidator(e, market.on_demand_rate(), regime).check(r);
  }
}

TEST(EngineFaults, LateNoticeShrinksTheWarningButNotTheGuarantee) {
  const SpotMarket market = make_market(single_zone(outage_trace()));
  const Experiment e = small_experiment(2.0, 2.0, 300);
  for (const MarketRegime& regime : notice_regimes()) {
    SCOPED_TRACE(regime.name + " notice " +
                 format_duration(regime.rebalance_notice));
    EngineOptions options;
    options.regime = regime;
    options.faults.notice_late_rate = 1.0;
    options.faults.notice_max_lag = 2 * kMinute;
    const RunResult r = run_fixed(market, e, PolicyKind::kPeriodic,
                                  Money::cents(81), {0}, options);
    EXPECT_TRUE(r.met_deadline);
    EXPECT_GT(r.faults.notices_late, 0);
    RunValidator(e, market.on_demand_rate(), regime).check(r);
  }
}

// The kill-instant contract of the one notice path: the out-of-bid tick
// fixes the kill `rebalance_notice` ahead, and a late notice only shrinks
// the warning — every kRebalanceNotice lands in [tick, kill] and every
// kDoom exactly at the kill.
class NoticeContractObserver final : public EngineObserver {
 public:
  explicit NoticeContractObserver(Duration lead) : lead_(lead) {}

  void on_event(const Event& event) override {
    switch (event.kind) {
      case EventKind::kPriceTick:
        last_tick_ = event.time;
        return;
      case EventKind::kRebalanceNotice: {
        ++notices;
        const auto tick = doom_tick_.find(event.zone);
        ASSERT_NE(tick, doom_tick_.end()) << "notice without a doom tick";
        EXPECT_GE(event.time, tick->second);
        EXPECT_LE(event.time, tick->second + lead_);
        return;
      }
      case EventKind::kDoom: {
        ++dooms;
        const auto tick = doom_tick_.find(event.zone);
        ASSERT_NE(tick, doom_tick_.end()) << "doom without a doom tick";
        EXPECT_EQ(event.time, tick->second + lead_);
        return;
      }
      default:
        return;
    }
  }

  // With every notice late, each doom reports a kNoticeLate fault from
  // inside the price tick that crossed the bid.
  void on_fault(const FaultEvent& fault) override {
    if (fault.kind != FaultEvent::Kind::kNoticeLate) return;
    EXPECT_EQ(fault.at, last_tick_);
    doom_tick_[fault.zone] = fault.at;
  }

  int notices = 0;
  int dooms = 0;

 private:
  Duration lead_;
  SimTime last_tick_ = -1;
  std::map<std::size_t, SimTime> doom_tick_;
};

TEST(EngineFaults, LateNoticesKeepTheKillInstant) {
  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  const Experiment e = Experiment::paper(40 * kDay, 0.15, 300);
  for (const MarketRegime& regime : notice_regimes()) {
    SCOPED_TRACE(regime.name + " notice " +
                 format_duration(regime.rebalance_notice));
    EngineOptions options;
    options.regime = regime;
    options.faults.notice_late_rate = 1.0;
    FixedStrategy strategy(Money::cents(81), {0, 1, 2},
                           make_policy(PolicyKind::kMarkovDaly));
    Engine engine(market, e, strategy, options);
    NoticeContractObserver contract(regime.rebalance_notice);
    engine.add_observer(&contract);
    const RunResult r = engine.run();
    EXPECT_TRUE(r.met_deadline);
    EXPECT_GT(r.faults.notices_late, 0);
    EXPECT_GT(contract.notices, 0);
    EXPECT_GT(contract.dooms, 0);
  }
}

TEST(EngineFaults, DroppedNoticesScheduleNoNoticeOrDoom) {
  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  const Experiment e = Experiment::paper(40 * kDay, 0.15, 300);
  for (const MarketRegime& regime : notice_regimes()) {
    SCOPED_TRACE(regime.name + " notice " +
                 format_duration(regime.rebalance_notice));
    EngineOptions options;
    options.regime = regime;
    options.faults.notice_drop_rate = 1.0;
    FixedStrategy strategy(Money::cents(81), {0, 1, 2},
                           make_policy(PolicyKind::kMarkovDaly));
    Engine engine(market, e, strategy, options);
    NoticeContractObserver contract(regime.rebalance_notice);
    engine.add_observer(&contract);
    const RunResult r = engine.run();
    EXPECT_TRUE(r.met_deadline);
    EXPECT_GT(r.faults.notices_dropped, 0);
    EXPECT_EQ(contract.notices, 0);
    EXPECT_EQ(contract.dooms, 0);
  }
}

TEST(EngineFaults, AllSixPoliciesMeetTheDeadlineUnderModerateFaults) {
  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  const Experiment e = Experiment::paper(40 * kDay, 0.15, 300);
  EngineOptions options;
  options.regime.rebalance_notice = 300;
  options.faults.ckpt_write_failure_rate = 0.2;
  options.faults.ckpt_corruption_rate = 0.1;
  options.faults.restart_failure_rate = 0.2;
  options.faults.request_rejection_rate = 0.3;
  options.faults.notice_drop_rate = 0.2;
  options.faults.notice_late_rate = 0.3;
  // Every run is audited live (line items, time order, the out-of-bid
  // refund) and at finish (RunValidator); a violation throws out of run().
  AuditObserver audit(e, market.on_demand_rate());

  const PolicyKind kinds[] = {PolicyKind::kThreshold, PolicyKind::kRisingEdge,
                              PolicyKind::kPeriodic, PolicyKind::kMarkovDaly};
  for (PolicyKind kind : kinds) {
    FixedStrategy strategy(Money::cents(81), {0, 1, 2}, make_policy(kind));
    Engine engine(market, e, strategy, options);
    engine.add_observer(&audit);
    const RunResult r = engine.run();
    EXPECT_TRUE(r.met_deadline) << to_string(kind);
  }
  {
    FixedStrategy strategy(LargeBidPolicy::large_bid(),
                           std::vector<std::size_t>{0},
                           std::make_unique<LargeBidPolicy>(Money::cents(30)));
    Engine engine(market, e, strategy, options);
    engine.add_observer(&audit);
    const RunResult r = engine.run();
    EXPECT_TRUE(r.met_deadline) << "large-bid";
  }
  {
    AdaptiveStrategy strategy;
    Engine engine(market, e, strategy, options);
    engine.add_observer(&audit);
    const RunResult r = engine.run();
    EXPECT_TRUE(r.met_deadline) << "adaptive";
  }
}

// --- RunValidator --------------------------------------------------------------

/// Expects `fn` to throw a CheckFailure whose message names `check`.
template <typename Fn>
void expect_violation(Fn&& fn, const std::string& check) {
  try {
    fn();
    ADD_FAILURE() << "no violation; expected one naming \"" << check << '"';
  } catch (const CheckFailure& failure) {
    EXPECT_NE(std::string(failure.what()).find(check), std::string::npos)
        << failure.what();
  }
}

TEST(RunValidator, PassesACleanRunAndCatchesTampering) {
  const SpotMarket market = make_market(single_zone(outage_trace()));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  testing::RunLog log;
  AuditObserver live(e, market.on_demand_rate());
  FixedStrategy strategy(Money::cents(81), {0},
                         make_policy(PolicyKind::kPeriodic));
  Engine engine(market, e, strategy);
  engine.add_observer(&log);
  engine.add_observer(&live);
  RunResult clean;
  ASSERT_NO_THROW(clean = engine.run());
  ASSERT_EQ(clean.out_of_bid_terminations, 1);
  const RunValidator validator(e, market.on_demand_rate());
  EXPECT_TRUE(validator.audit(clean).empty());
  EXPECT_NO_THROW(validator.check(clean));

  {
    RunResult tampered = clean;  // cost decomposition broken
    tampered.total_cost += Money::cents(1);
    EXPECT_FALSE(validator.audit(tampered).empty());
    EXPECT_THROW(validator.check(tampered), CheckFailure);
  }
  {
    RunResult tampered = clean;  // deadline flag contradicts finish time
    tampered.finish_time = e.deadline_time() + 1;
    EXPECT_FALSE(validator.audit(tampered).empty());
  }
  {
    RunResult tampered = clean;  // committed progress not backed by the log
    tampered.committed_progress += 100;
    EXPECT_FALSE(validator.audit(tampered).empty());
  }
  {
    RunResult tampered = clean;  // phantom on-demand charge
    tampered.on_demand_cost += Money::dollars(2.40);
    tampered.total_cost += Money::dollars(2.40);
    EXPECT_FALSE(validator.audit(tampered).empty());
  }

  // The live audits, fed through AuditObserver's hooks directly.
  const SimTime kill = 65 * kMinute;  // the out-of-bid instant in the trace
  LineItem partial;
  partial.kind = LineItem::Kind::kSpotUserPartial;
  partial.zone = 0;
  partial.cycle_start = hour_floor(kill);
  partial.charged_at = kill;
  partial.amount = Money::dollars(0.30);
  {
    // An out-of-bid partial hour was charged: classic 2012 forfeits it.
    AuditObserver audit(e, market.on_demand_rate());
    audit.on_billing(partial);
    expect_violation(
        [&] { audit.on_termination(kill, 0, TerminationCause::kOutOfBid); },
        "charged a partial hour at its out-of-bid termination");
  }
  {
    // The same coincidence is the rule under a charging refund.
    MarketRegime charging = MarketRegime::classic_2012();
    charging.billing.refund = RefundRule::kProviderChargesUsage;
    AuditObserver audit(e, market.on_demand_rate(), AuditMode::kFull,
                        charging);
    audit.on_billing(partial);
    EXPECT_NO_THROW(
        audit.on_termination(kill, 0, TerminationCause::kOutOfBid));
  }
  {
    // The clean run's own line items replayed: they sum to its costs...
    AuditObserver audit(e, market.on_demand_rate());
    for (const LineItem& item : log.items) audit.on_billing(item);
    EXPECT_NO_THROW(audit.on_finish(clean));
    // ...and one extra charge breaks the spot_cost sum.
    for (const LineItem& item : log.items) audit.on_billing(item);
    audit.on_billing(partial);
    expect_violation([&] { audit.on_finish(clean); },
                     "spot line items sum to");
  }
  {
    // A transition earlier than the previous one.
    AuditObserver audit(e, market.on_demand_rate());
    audit.on_transition(kill, 0, ZoneState::kRunning, ZoneState::kDown);
    expect_violation(
        [&] {
          audit.on_transition(kill - 1, 0, ZoneState::kDown,
                              ZoneState::kWaiting);
        },
        "time goes back");
  }
}

}  // namespace
}  // namespace redspot
