// The typed event calendar: strict FIFO tie-breaking at equal timestamps
// (never by kind), cancel-and-zero handles, lazy-deletion compaction
// bounds, dispatch of every (kind, zone, time, seq) entry to the sink —
// and the engine-level regression pinning the relative order of a
// coincident (deadline-trigger, hour-boundary, price-tick) instant, which
// byte-identity with the historical engine depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/engine.hpp"
#include "core/events/event_queue.hpp"
#include "core/events/trace_recorder.hpp"
#include "test_util.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::make_market;
using testing::run_fixed;
using testing::single_zone;
using testing::small_experiment;

/// Records every dispatched entry, then runs the test's per-event action
/// (the engine's fixed handler in miniature). Tests tag entries through
/// the zone field.
struct RecordingSink final : EventSink {
  std::vector<Event> events;
  std::function<void(const Event&)> action;

  void on_queue_event(const Event& event) override {
    events.push_back(event);
    if (action) action(event);
  }
  std::vector<std::size_t> zones() const {
    std::vector<std::size_t> out;
    for (const Event& e : events) out.push_back(e.zone);
    return out;
  }
};

using Zones = std::vector<std::size_t>;

TEST(EventQueue, DispatchesInTimeOrder) {
  RecordingSink sink;
  EventQueue queue(100, sink);
  queue.schedule_at(EventKind::kPriceTick, 3, 300);
  queue.schedule_at(EventKind::kPriceTick, 1, 100);
  queue.schedule_at(EventKind::kPriceTick, 2, 200);
  while (queue.step()) {
  }
  EXPECT_EQ(sink.zones(), (Zones{1, 2, 3}));
  EXPECT_EQ(queue.now(), 300);
  EXPECT_EQ(queue.executed_count(), 3u);
  EXPECT_FALSE(queue.step());  // empty calendar
}

TEST(EventQueue, EqualTimestampsAreStrictlyFifoNeverByKind) {
  RecordingSink sink;
  EventQueue queue(0, sink);
  // Scheduled in an order a kind-priority queue would rearrange.
  const EventKind kinds[] = {
      EventKind::kZoneCompletion, EventKind::kPriceTick,
      EventKind::kDeadlineTrigger, EventKind::kCycleBoundary,
      EventKind::kDoom,
  };
  for (const EventKind kind : kinds) queue.schedule_at(kind, kNoZone, 50);
  while (queue.step()) {
  }
  std::vector<EventKind> order;
  for (const Event& e : sink.events) order.push_back(e.kind);
  EXPECT_EQ(order, std::vector<EventKind>(std::begin(kinds),
                                          std::end(kinds)));
}

TEST(EventQueue, FifoHoldsAcrossInterleavedSchedules) {
  RecordingSink sink;
  EventQueue queue(0, sink);
  queue.schedule_at(EventKind::kPriceTick, 1, 10);
  queue.schedule_at(EventKind::kPriceTick, 0, 5);
  sink.action = [&](const Event& e) {
    // Scheduled mid-run for the same instant as an existing entry: the
    // older entry still fires first.
    if (e.zone == 0) queue.schedule_at(EventKind::kDoom, 2, 10);
  };
  while (queue.step()) {
  }
  EXPECT_EQ(sink.zones(), (Zones{0, 1, 2}));
}

TEST(EventQueue, CancelZeroesTheHandleAndSkipsTheEvent) {
  RecordingSink sink;
  EventQueue queue(0, sink);
  EventId keep = queue.schedule_at(EventKind::kPriceTick, 1, 10);
  EventId drop = queue.schedule_at(EventKind::kDoom, 100, 10);
  EXPECT_TRUE(queue.pending(drop));
  queue.cancel(drop);
  EXPECT_EQ(drop, 0u);
  EXPECT_FALSE(queue.pending(drop));
  EXPECT_EQ(queue.pending_count(), 1u);

  // Cancelling a zero handle is the universal no-op.
  queue.cancel(drop);
  EXPECT_EQ(drop, 0u);

  while (queue.step()) {
  }
  EXPECT_EQ(sink.zones(), (Zones{1}));
  // Cancelling after the event ran is also a no-op.
  queue.cancel(keep);
  EXPECT_EQ(keep, 0u);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  RecordingSink sink;
  EventQueue queue(1000, sink);
  EXPECT_THROW(queue.schedule_at(EventKind::kPriceTick, kNoZone, 999),
               CheckFailure);
  // schedule_in is relative to now and never in the past.
  EventId id = queue.schedule_in(EventKind::kPriceTick, kNoZone, 0);
  EXPECT_TRUE(queue.pending(id));
}

TEST(EventQueue, CompactionBoundsTheBacklogUnderCancelChurn) {
  RecordingSink sink;
  EventQueue queue(0, sink);
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(queue.schedule_at(EventKind::kPriceTick, 0, 10 + i));
  }
  EXPECT_EQ(queue.backlog(), 300u);
  for (int i = 0; i < 250; ++i) queue.cancel(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(queue.pending_count(), 50u);
  // Compaction fires whenever cancelled entries outnumber live ones, so
  // the backlog never exceeds twice the live count (the exact value
  // depends on where the compactions landed during the churn).
  EXPECT_LE(queue.backlog(), 2 * queue.pending_count());
  std::size_t ran = 0;
  while (queue.step()) ++ran;
  EXPECT_EQ(ran, 50u);
}

TEST(EventQueue, CancelOfUnknownOrStaleHandlesIsANoOp) {
  RecordingSink sink;
  EventQueue queue(0, sink);
  EventId first = queue.schedule_at(EventKind::kDoom, 100, 10);
  const EventId stale = first;  // a copy the cancel below cannot zero
  queue.cancel(first);
  // The freed slot is reused; the stale handle must not reach the new
  // event living in it.
  const EventId live = queue.schedule_at(EventKind::kPriceTick, 1, 20);
  EventId again = stale;
  queue.cancel(again);
  EXPECT_EQ(again, 0u);
  EventId unknown = 9999;
  queue.cancel(unknown);
  EXPECT_EQ(unknown, 0u);
  EXPECT_TRUE(queue.pending(live));
  EXPECT_EQ(queue.pending_count(), 1u);
  while (queue.step()) {
  }
  EXPECT_EQ(sink.zones(), (Zones{1}));
}

TEST(EventQueue, EventsMayScheduleAndCancelOtherEvents) {
  RecordingSink sink;
  EventQueue queue(0, sink);
  int chain = 0;
  bool victim_fired = false;
  EventId victim = 0;
  sink.action = [&](const Event& e) {
    switch (e.kind) {
      case EventKind::kPriceTick:
        if (++chain < 5) queue.schedule_in(EventKind::kPriceTick, kNoZone, 10);
        break;
      case EventKind::kCycleBoundary:
        queue.cancel(victim);
        break;
      default:
        victim_fired = true;
    }
  };
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 0);
  victim = queue.schedule_at(EventKind::kDoom, 0, 25);
  queue.schedule_at(EventKind::kCycleBoundary, 0, 15);
  while (queue.step()) {
  }
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(queue.now(), 40);
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(victim, 0u);
}

TEST(EventQueue, SchedulingAtTheCurrentInstantFromAnEventRunsAfterIt) {
  RecordingSink sink;
  EventQueue queue(0, sink);
  queue.schedule_at(EventKind::kPriceTick, 1, 10);
  sink.action = [&](const Event& e) {
    if (e.zone == 1) queue.schedule_at(EventKind::kDoom, 2, queue.now());
  };
  while (queue.step()) {
  }
  EXPECT_EQ(sink.zones(), (Zones{1, 2}));
  EXPECT_EQ(sink.events[1].time, 10);
  EXPECT_EQ(queue.now(), 10);
}

TEST(EventQueue, CompactionPreservesOrderAndPendingEvents) {
  // Enough cancel churn to force several compactions; the survivors must
  // still run in time order with FIFO ties.
  RecordingSink sink;
  EventQueue queue(0, sink);
  queue.schedule_at(EventKind::kPriceTick, 1, 500);
  queue.schedule_at(EventKind::kDoom, 2, 500);
  queue.schedule_at(EventKind::kPriceTick, 3, 600);
  std::size_t max_backlog = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> batch;
    for (int i = 0; i < 100; ++i) {
      batch.push_back(
          queue.schedule_at(EventKind::kDeadlineTrigger, kNoZone, 1000 + i));
    }
    for (EventId& id : batch) {
      queue.cancel(id);
      max_backlog = std::max(max_backlog, queue.backlog());
    }
  }
  EXPECT_EQ(queue.pending_count(), 3u);
  // Never the 5000 entries the churn pushed.
  EXPECT_LE(max_backlog, 256u);
  while (queue.step()) {
  }
  EXPECT_EQ(sink.zones(), (Zones{1, 2, 3}));
  EXPECT_EQ(queue.backlog(), 0u);
}

TEST(EventQueue, ManyInterleavedEventsFireInNonDecreasingTimeFifoOrder) {
  RecordingSink sink;
  EventQueue queue(0, sink);
  std::vector<std::pair<SimTime, std::size_t>> fired;
  sink.action = [&](const Event& e) {
    fired.emplace_back(queue.now(), e.zone);
  };
  for (std::size_t i = 0; i < 1000; ++i) {
    // Every instant twice.
    const SimTime t = static_cast<SimTime>(i * 7919 % 500);
    queue.schedule_at(EventKind::kPriceTick, i, t);
  }
  while (queue.step()) {
  }
  ASSERT_EQ(fired.size(), 1000u);
  // (time, scheduling index) ascending: time order, FIFO among ties.
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(EventQueue, SinkReceivesEveryDispatchWithKindZoneTimeAndSeq) {
  RecordingSink sink;
  EventQueue queue(0, sink);
  queue.schedule_at(EventKind::kCycleBoundary, 2, 40);
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 30);
  while (queue.step()) {
  }
  const std::vector<Event>& log = sink.events;
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].time, 30);
  EXPECT_EQ(log[0].kind, EventKind::kPriceTick);
  EXPECT_EQ(log[0].zone, kNoZone);
  EXPECT_EQ(log[1].time, 40);
  EXPECT_EQ(log[1].kind, EventKind::kCycleBoundary);
  EXPECT_EQ(log[1].zone, 2u);
  // seq records scheduling order (the FIFO tie-break key), not dispatch
  // order: the boundary was scheduled first, the tick fired first.
  EXPECT_EQ(log[0].seq, 1u);
  EXPECT_EQ(log[1].seq, 0u);
}

// --- Engine-level coincidence regression -----------------------------------

// Pins the historical simultaneity discipline for the worst coincidence:
// deadline trigger, billing-hour boundary and price tick all landing on
// the same instant. The relative order follows from *when* each was armed
// (trigger before the run loop, boundary at instance start, tick one
// price step ahead), not from any kind priority — so the trigger observes
// pre-boundary billing and the pre-tick price.
TEST(EngineCoincidence, TriggerBoundaryAndTickAtTheSameInstant) {
  // C = 2 h, t_c = t_r = 300 s, deadline 11100 s: with nothing committed,
  // switch_time = 11100 - 7200 - 300 = 3600 — exactly the first cycle
  // boundary AND a price-tick instant (3600 = 12 price steps).
  Experiment e;
  e.app = AppModel{"test-app", 2 * kHour, 1, 8};
  e.costs = CheckpointCosts{300, 300};
  e.start = 0;
  e.deadline = 2 * kHour + 3900;
  e.history_span = 2 * kHour;
  e.validate();
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 48)));

  FixedStrategy strategy(Money::cents(81), {0},
                         make_policy(PolicyKind::kRisingEdge));
  Engine engine(market, e, strategy, {});
  EventTraceRecorder trace;
  engine.add_observer(&trace);
  const RunResult r = engine.run();

  std::vector<std::string> at_3600;
  for (const std::string& line : trace.lines()) {
    if (line.rfind("E 3600 ", 0) == 0) at_3600.push_back(line);
  }
  const std::vector<std::string> expected = {
      "E 3600 deadline-trigger",
      "E 3600 cycle-boundary z0",
      "E 3600 price-tick",
  };
  EXPECT_EQ(at_3600, expected);

  // The trigger fired first and forced a checkpoint of the leader's 3600 s
  // of unprotected progress (rising-edge never checkpoints on a flat
  // price); the second forced write at 6900 covers the rest.
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.met_deadline);
  EXPECT_FALSE(r.switched_to_on_demand);
  EXPECT_EQ(r.checkpoints_committed, 2);
  EXPECT_EQ(r.finish_time, 7800);
  EXPECT_EQ(r.total_cost, Money::cents(90));  // 3 started hours at $0.30
}

// The same scenario through the plain result API must agree with the
// historical engine's numbers when the trigger instant is NOT coincident
// (switch_time one step off the boundary) — guarding against accidental
// re-ordering sensitivity.
TEST(EngineCoincidence, NearMissTriggerIsEquivalent) {
  Experiment e;
  e.app = AppModel{"test-app", 2 * kHour, 1, 8};
  e.costs = CheckpointCosts{300, 300};
  e.start = 0;
  e.deadline = 2 * kHour + 4200;  // switch_time 3900: between boundaries
  e.history_span = 2 * kHour;
  e.validate();
  const SpotMarket market =
      make_market(single_zone(constant_series(0.30, 48)));
  const RunResult r = run_fixed(market, e, PolicyKind::kRisingEdge,
                                Money::cents(81), {0});
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.met_deadline);
  EXPECT_EQ(r.checkpoints_committed, 2);
}

// --- Engine-level routing contract ------------------------------------------

constexpr std::size_t kNumEventKinds =
    static_cast<std::size_t>(EventKind::kOnDemandFinish) + 1;

/// Counts dispatches per kind and tallies faults by hand, independently of
/// the engine's own FaultStats accounting.
struct KindCounter final : EngineObserver {
  std::array<int, kNumEventKinds> seen{};
  FaultStats faults;

  void on_event(const Event& event) override {
    ++seen[static_cast<std::size_t>(event.kind)];
  }
  void on_fault(const FaultEvent& fault) override {
    using K = FaultEvent::Kind;
    faults.ckpt_write_failures += fault.kind == K::kCkptWriteFailure;
    faults.ckpt_corruptions += fault.kind == K::kCkptCorruption;
    faults.restart_failures += fault.kind == K::kRestartFailure;
    faults.request_rejections += fault.kind == K::kRequestRejection;
    faults.notices_dropped += fault.kind == K::kNoticeDropped;
    faults.notices_late += fault.kind == K::kNoticeLate;
    faults.backoff_total += fault.backoff;
  }
};

// Every EventKind reaches its handler through the one dispatch path: a
// classic checkpointing run, a pre-boundary-checking run, a notice-regime
// run (notice, doom, emergency checkpoint) and a run priced out of the
// spot market (deadline trigger, on-demand finish) together see all
// thirteen kinds.
TEST(EngineDispatch, EveryEventKindIsRouted) {
  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  const Experiment e = Experiment::paper(40 * kDay, 0.15, 300);
  KindCounter counter;
  EngineOptions notice;
  notice.regime.rebalance_notice = 900;
  for (const auto& [policy, options] :
       {std::pair{PolicyKind::kPeriodic, EngineOptions{}},
        std::pair{PolicyKind::kIndexTrack, EngineOptions{}},
        std::pair{PolicyKind::kMarkovDaly, notice}}) {
    const RunResult r = run_fixed(market, e, policy, Money::cents(81),
                                  {0, 1, 2}, options, &counter);
    EXPECT_TRUE(r.met_deadline) << to_string(policy);
  }

  const SpotMarket priced_out =
      make_market(single_zone(constant_series(1.00, 48)));
  const RunResult od =
      run_fixed(priced_out, small_experiment(1.0, 1.0, 300),
                PolicyKind::kPeriodic, Money::cents(81), {0}, {}, &counter);
  EXPECT_TRUE(od.switched_to_on_demand);
  EXPECT_TRUE(od.met_deadline);

  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    EXPECT_GT(counter.seen[k], 0)
        << to_string(static_cast<EventKind>(k)) << " never dispatched";
  }
}

// RunResult.faults is the engine's tally of the faults it announced: it
// must agree kind by kind (and in total backoff) with an observer counting
// on_fault calls, with every fault class firing.
TEST(EngineDispatch, FaultStatsMatchTheObservedFaults) {
  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  const Experiment e = Experiment::paper(40 * kDay, 0.15, 300);
  EngineOptions options;
  options.regime.rebalance_notice = 300;
  options.faults.ckpt_write_failure_rate = 0.2;
  options.faults.ckpt_corruption_rate = 0.1;
  options.faults.restart_failure_rate = 0.2;
  options.faults.request_rejection_rate = 0.3;
  options.faults.notice_drop_rate = 0.4;
  options.faults.notice_late_rate = 0.4;
  KindCounter counter;
  const RunResult r = run_fixed(market, e, PolicyKind::kMarkovDaly,
                                Money::cents(81), {0, 1, 2}, options,
                                &counter);
  EXPECT_GT(r.faults.ckpt_write_failures, 0);
  EXPECT_GT(r.faults.ckpt_corruptions, 0);
  EXPECT_GT(r.faults.restart_failures, 0);
  EXPECT_GT(r.faults.request_rejections, 0);
  EXPECT_GT(r.faults.notices_dropped, 0);
  EXPECT_GT(r.faults.notices_late, 0);
  EXPECT_GT(r.faults.backoff_total, 0);
  EXPECT_EQ(r.faults.ckpt_write_failures, counter.faults.ckpt_write_failures);
  EXPECT_EQ(r.faults.ckpt_corruptions, counter.faults.ckpt_corruptions);
  EXPECT_EQ(r.faults.restart_failures, counter.faults.restart_failures);
  EXPECT_EQ(r.faults.request_rejections, counter.faults.request_rejections);
  EXPECT_EQ(r.faults.notices_dropped, counter.faults.notices_dropped);
  EXPECT_EQ(r.faults.notices_late, counter.faults.notices_late);
  EXPECT_EQ(r.faults.backoff_total, counter.faults.backoff_total);
}

}  // namespace
}  // namespace redspot
