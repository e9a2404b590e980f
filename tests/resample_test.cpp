// Unit tests for the real-trace import path (event resampling) and the
// Appendix-A termination-notice engine extension.
#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "core/engine.hpp"
#include "test_util.hpp"
#include "trace/resample.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

using testing::make_market;
using testing::run_fixed;
using testing::single_zone;
using testing::small_experiment;
using testing::step_series;

// --- resample_events -----------------------------------------------------------

TEST(Resample, HoldsLastEventValue) {
  const std::vector<PriceEvent> events = {
      {0, Money::dollars(0.30)},
      {700, Money::dollars(0.50)},   // mid-step change
      {1500, Money::dollars(0.40)},
  };
  const PriceSeries s = resample_events(events, 0, 2100, 300);
  EXPECT_EQ(s.at(0), Money::dollars(0.30));
  EXPECT_EQ(s.at(600), Money::dollars(0.30));   // change at 700 not yet seen
  EXPECT_EQ(s.at(900), Money::dollars(0.50));
  EXPECT_EQ(s.at(1500), Money::dollars(0.40));
  EXPECT_EQ(s.at(2099), Money::dollars(0.40));
}

TEST(Resample, BackfillsBeforeFirstEvent) {
  const std::vector<PriceEvent> events = {{900, Money::dollars(0.42)}};
  const PriceSeries s = resample_events(events, 0, 1800, 300);
  EXPECT_EQ(s.at(0), Money::dollars(0.42));
  EXPECT_EQ(s.at(1200), Money::dollars(0.42));
}

TEST(Resample, SortsUnorderedEvents) {
  const std::vector<PriceEvent> events = {
      {600, Money::dollars(0.50)},
      {0, Money::dollars(0.30)},
  };
  const PriceSeries s = resample_events(events, 0, 1200, 300);
  EXPECT_EQ(s.at(0), Money::dollars(0.30));
  EXPECT_EQ(s.at(600), Money::dollars(0.50));
}

TEST(Resample, AlignsUnalignedStart) {
  const std::vector<PriceEvent> events = {{0, Money::dollars(0.30)}};
  const PriceSeries s = resample_events(events, 450, 1500, 300);
  EXPECT_EQ(s.start() % 300, 0);
  EXPECT_LE(s.start(), 450);
  EXPECT_GE(s.end(), 1500);
}

TEST(Resample, Validates) {
  EXPECT_THROW(resample_events({}, 0, 100, 300), CheckFailure);
  EXPECT_THROW(
      resample_events({{0, Money::dollars(1)}}, 100, 100, 300),
      CheckFailure);
}

// --- read_event_csv -------------------------------------------------------------

TEST(EventCsv, ParsesMultiZoneEvents) {
  std::istringstream in(
      "time,zone,price\n"
      "0,us-east-1a,0.27\n"
      "0,us-east-1b,0.30\n"
      "650,us-east-1a,0.95\n"
      "1500,us-east-1b,0.28\n");
  const ZoneTraceSet traces = read_event_csv(in);
  ASSERT_EQ(traces.num_zones(), 2u);
  EXPECT_EQ(traces.zone_name(0), "us-east-1a");
  EXPECT_EQ(traces.price(0, 0), Money::dollars(0.27));
  EXPECT_EQ(traces.price(0, 900), Money::dollars(0.95));
  EXPECT_EQ(traces.price(1, 0), Money::dollars(0.30));
  EXPECT_EQ(traces.price(1, 1500), Money::dollars(0.28));
  // Common aligned grid.
  EXPECT_EQ(traces.start(), 0);
  EXPECT_GE(traces.end(), 1500);
}

TEST(EventCsv, RejectsMalformed) {
  {
    std::istringstream in("wrong,header,here\n");
    EXPECT_THROW(read_event_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("time,zone,price\n");
    EXPECT_THROW(read_event_csv(in), std::runtime_error);  // no events
  }
  {
    std::istringstream in("time,zone,price\nabc,z,0.3\n");
    EXPECT_THROW(read_event_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("time,zone,price\n0,z,xyz\n");
    EXPECT_THROW(read_event_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("time,zone,price\n0,,0.3\n");
    EXPECT_THROW(read_event_csv(in), std::runtime_error);
  }
}

TEST(EventCsv, ResampledTraceDrivesTheEngine) {
  // End-to-end: import events, build a market, run an experiment.
  std::ostringstream events;
  events << "time,zone,price\n0,imported,0.30\n";
  events << 6 * kHour << ",imported,2.00\n";
  events << 7 * kHour << ",imported,0.30\n";
  std::istringstream in(events.str());
  ZoneTraceSet imported = read_event_csv(in);
  // Extend coverage: resampling only spans observed events; pad by
  // windowing the engine experiment inside it.
  const SpotMarket market = make_market(imported.window(0, 7 * kHour));
  const Experiment e = small_experiment(2.0, 0.5, 300);
  const RunResult r =
      run_fixed(market, e, PolicyKind::kPeriodic, Money::cents(81), {0});
  EXPECT_TRUE(r.met_deadline);
  EXPECT_GT(r.total_cost, Money());
}

// --- Termination notice (Appendix A) ----------------------------------------------

TEST(TerminationNotice, NoticeAtLeastTcSavesProgress) {
  // Zone dies after 30 min with no checkpoint taken. Without notice all
  // progress is lost; with a 300 s notice (== t_c) the emergency
  // checkpoint commits ~30 min of work.
  const auto trace = step_series({{0.30, 6}, {2.00, 6},
                                  {0.30, 40 * 12}});
  const Experiment e = small_experiment(2.0, 1.0, 300);

  const RunResult without = run_fixed(make_market(single_zone(trace)), e,
                                      PolicyKind::kMarkovDaly,
                                      Money::cents(81), {0});
  EngineOptions notice;
  notice.regime.rebalance_notice = 300;
  const RunResult with = run_fixed(make_market(single_zone(trace)), e,
                                   PolicyKind::kMarkovDaly,
                                   Money::cents(81), {0}, notice);
  EXPECT_TRUE(without.met_deadline);
  EXPECT_TRUE(with.met_deadline);
  // Without the notice the outage commits nothing: the recovery starts
  // from scratch (a restart only counts when it loads a checkpoint).
  EXPECT_EQ(without.restarts, 0);
  // With it, the emergency checkpoint commits ~30 min and the recovery
  // loads it, finishing that much earlier.
  EXPECT_EQ(with.restarts, 1);
  EXPECT_GE(with.checkpoints_committed, 1);
  EXPECT_LT(with.finish_time, without.finish_time);
  EXPECT_NEAR(static_cast<double>(without.finish_time - with.finish_time),
              30.0 * kMinute, 10.0 * kMinute);
}

TEST(TerminationNotice, ShortNoticeCannotFitACheckpoint) {
  const auto trace = step_series({{0.30, 6}, {2.00, 6},
                                  {0.30, 40 * 12}});
  const Experiment e = small_experiment(2.0, 1.0, 300);
  const RunResult baseline = run_fixed(make_market(single_zone(trace)), e,
                                       PolicyKind::kMarkovDaly,
                                       Money::cents(81), {0});
  EngineOptions notice;
  notice.regime.rebalance_notice = 120;  // < t_c: useless, as Appendix A argues
  const RunResult r = run_fixed(make_market(single_zone(trace)), e,
                                PolicyKind::kMarkovDaly, Money::cents(81),
                                {0}, notice);
  EXPECT_TRUE(r.met_deadline);
  // No emergency checkpoint fits, so the outage still loses everything:
  // recovery starts from scratch, same finish as the no-notice run.
  EXPECT_EQ(r.restarts, baseline.restarts);
  EXPECT_EQ(r.finish_time, baseline.finish_time);
}

TEST(TerminationNotice, DoomedPartialHourStaysFree) {
  // The notice does not change the billing rules: the cut hour is free.
  const auto trace = step_series({{0.30, 6}, {2.00, 6},
                                  {0.30, 40 * 12}});
  const Experiment e = small_experiment(1.0, 1.5, 300);
  EngineOptions notice;
  notice.regime.rebalance_notice = 300;
  testing::RunLog log;
  const RunResult r = run_fixed(make_market(single_zone(trace)), e,
                                PolicyKind::kMarkovDaly, Money::cents(81),
                                {0}, notice, &log);
  EXPECT_TRUE(r.met_deadline);
  // The doomed hour's rate was locked at $0.30 before the spike and is
  // forfeited free on termination; no charge at the $2.00 spike rate can
  // ever appear.
  for (const LineItem& item : log.items)
    EXPECT_LE(item.amount, Money::dollars(0.30));
}

TEST(TerminationNotice, DeadlineStillGuaranteedUnderNotice) {
  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  for (Duration notice : {Duration{120}, Duration{300}, Duration{900}}) {
    EngineOptions options;
    options.regime.rebalance_notice = notice;
    FixedStrategy strategy(Money::cents(81), {0, 1, 2},
                           make_policy(PolicyKind::kMarkovDaly));
    const Experiment e = Experiment::paper(40 * kDay, 0.15, 300);
    Engine engine(market, e, strategy, options);
    const RunResult r = engine.run();
    EXPECT_TRUE(r.met_deadline) << "notice=" << notice;
  }
}

}  // namespace
}  // namespace redspot
