// The typed event calendar: strict FIFO tie-breaking at equal timestamps
// (never by kind), cancel-and-zero handles, lazy-deletion compaction
// bounds, observer dispatch — and the engine-level regression pinning the
// relative order of a coincident (deadline-trigger, hour-boundary,
// price-tick) instant, which byte-identity with the historical engine
// depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/engine.hpp"
#include "core/events/event_queue.hpp"
#include "core/events/trace_recorder.hpp"
#include "test_util.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::make_market;
using testing::run_fixed;
using testing::single_zone;

TEST(EventQueue, DispatchesInTimeOrder) {
  EventQueue queue(100);
  std::vector<int> order;
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 300,
                    [&order] { order.push_back(3); });
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 100,
                    [&order] { order.push_back(1); });
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 200,
                    [&order] { order.push_back(2); });
  while (queue.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 300);
  EXPECT_EQ(queue.executed_count(), 3u);
  EXPECT_FALSE(queue.step());  // empty calendar
}

TEST(EventQueue, EqualTimestampsAreStrictlyFifoNeverByKind) {
  EventQueue queue(0);
  std::vector<EventKind> order;
  // Scheduled in an order a kind-priority queue would rearrange.
  const EventKind kinds[] = {
      EventKind::kZoneCompletion, EventKind::kPriceTick,
      EventKind::kDeadlineTrigger, EventKind::kCycleBoundary,
      EventKind::kDoom,
  };
  for (const EventKind kind : kinds) {
    queue.schedule_at(kind, kNoZone, 50,
                      [&order, kind] { order.push_back(kind); });
  }
  while (queue.step()) {
  }
  EXPECT_EQ(order, std::vector<EventKind>(std::begin(kinds),
                                          std::end(kinds)));
}

TEST(EventQueue, FifoHoldsAcrossInterleavedSchedules) {
  EventQueue queue(0);
  std::vector<int> order;
  queue.schedule_at(EventKind::kPriceTick, 0, 10,
                    [&] { order.push_back(1); });
  queue.schedule_at(EventKind::kPriceTick, 0, 5, [&] {
    order.push_back(0);
    // Scheduled mid-run for the same instant as an existing entry: the
    // older entry still fires first.
    queue.schedule_at(EventKind::kDoom, 0, 10, [&] { order.push_back(2); });
  });
  while (queue.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelZeroesTheHandleAndSkipsTheEvent) {
  EventQueue queue(0);
  int fired = 0;
  EventId keep = queue.schedule_at(EventKind::kPriceTick, 0, 10,
                                   [&fired] { ++fired; });
  EventId drop = queue.schedule_at(EventKind::kDoom, 0, 10,
                                   [&fired] { fired += 100; });
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
  EXPECT_EQ(fired, 1);
  // Cancelling after the event ran is also a no-op.
  queue.cancel(keep);
  EXPECT_EQ(keep, 0u);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue queue(1000);
  EXPECT_THROW(
      queue.schedule_at(EventKind::kPriceTick, kNoZone, 999, [] {}),
      CheckFailure);
  // schedule_in is relative to now and never in the past.
  EventId id = queue.schedule_in(EventKind::kPriceTick, kNoZone, 0, [] {});
  EXPECT_TRUE(queue.pending(id));
}

TEST(EventQueue, CompactionBoundsTheBacklogUnderCancelChurn) {
  EventQueue queue(0);
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(queue.schedule_at(EventKind::kPriceTick, 0, 10 + i, [] {}));
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
  EventQueue queue(0);
  int fired = 0;
  EventId first = queue.schedule_at(EventKind::kDoom, 0, 10,
                                    [&fired] { fired += 100; });
  const EventId stale = first;  // a copy the cancel below cannot zero
  queue.cancel(first);
  // The freed slot is reused; the stale handle must not reach the new
  // event living in it.
  const EventId live = queue.schedule_at(EventKind::kPriceTick, kNoZone, 20,
                                         [&fired] { ++fired; });
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
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RejectsAnEmptyCallback) {
  EventQueue queue(0);
  EXPECT_THROW(queue.schedule_at(EventKind::kPriceTick, kNoZone, 1,
                                 EventQueue::Callback{}),
               CheckFailure);
}

TEST(EventQueue, EventsMayScheduleAndCancelOtherEvents) {
  EventQueue queue(0);
  int chain = 0;
  std::function<void()> next = [&] {
    ++chain;
    if (chain < 5) queue.schedule_in(EventKind::kPriceTick, kNoZone, 10, next);
  };
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 0, next);
  bool victim_fired = false;
  EventId victim = queue.schedule_at(EventKind::kDoom, 0, 25,
                                     [&victim_fired] { victim_fired = true; });
  queue.schedule_at(EventKind::kCycleBoundary, 0, 15,
                    [&] { queue.cancel(victim); });
  while (queue.step()) {
  }
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(queue.now(), 40);
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(victim, 0u);
}

TEST(EventQueue, SchedulingAtTheCurrentInstantFromAnEventRunsAfterIt) {
  EventQueue queue(0);
  std::vector<int> order;
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 10, [&] {
    order.push_back(1);
    queue.schedule_at(EventKind::kDoom, 0, queue.now(),
                      [&order] { order.push_back(2); });
  });
  while (queue.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.now(), 10);
}

TEST(EventQueue, CompactionPreservesOrderAndPendingEvents) {
  // Enough cancel churn to force several compactions; the survivors must
  // still run in time order with FIFO ties.
  EventQueue queue(0);
  std::vector<int> order;
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 500,
                    [&order] { order.push_back(1); });
  queue.schedule_at(EventKind::kDoom, 0, 500, [&order] { order.push_back(2); });
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 600,
                    [&order] { order.push_back(3); });
  std::size_t max_backlog = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> batch;
    for (int i = 0; i < 100; ++i) {
      batch.push_back(
          queue.schedule_at(EventKind::kDeadlineTrigger, kNoZone, 1000 + i,
                            [] {}));
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
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.backlog(), 0u);
}

TEST(EventQueue, ManyInterleavedEventsFireInNonDecreasingTimeFifoOrder) {
  EventQueue queue(0);
  std::vector<std::pair<SimTime, int>> fired;
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = (i * 7919) % 500;  // every instant twice
    queue.schedule_at(EventKind::kPriceTick, kNoZone, t, [&fired, &queue, i] {
      fired.emplace_back(queue.now(), i);
    });
  }
  while (queue.step()) {
  }
  ASSERT_EQ(fired.size(), 1000u);
  // (time, scheduling index) ascending: time order, FIFO among ties.
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

struct EventLog final : EngineObserver {
  std::vector<Event> events;
  void on_event(const Event& event) override { events.push_back(event); }
};

TEST(EventQueue, ObserversSeeEveryDispatchWithKindZoneAndTime) {
  EventQueue queue(0);
  EventLog log;
  EventLog log2;
  queue.add_observer(&log);
  queue.add_observer(&log2);
  queue.schedule_at(EventKind::kCycleBoundary, 2, 40, [] {});
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 30, [] {});
  while (queue.step()) {
  }
  ASSERT_EQ(log.events.size(), 2u);
  EXPECT_EQ(log.events[0].time, 30);
  EXPECT_EQ(log.events[0].kind, EventKind::kPriceTick);
  EXPECT_EQ(log.events[0].zone, kNoZone);
  EXPECT_EQ(log.events[1].time, 40);
  EXPECT_EQ(log.events[1].kind, EventKind::kCycleBoundary);
  EXPECT_EQ(log.events[1].zone, 2u);
  // seq records scheduling order (the FIFO tie-break key), not dispatch
  // order: the boundary was scheduled first, the tick fired first.
  EXPECT_EQ(log.events[0].seq, 1u);
  EXPECT_EQ(log.events[1].seq, 0u);
  ASSERT_EQ(log2.events.size(), 2u);
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

}  // namespace
}  // namespace redspot
