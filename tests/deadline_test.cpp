// Deadline module: the margin formula M = (T - now) - (C_r + t_c + t_r),
// its decay over time and jump at each commit, the pure trigger decision,
// and DeadlineMonitor's arm/re-arm/disarm calendar semantics.
#include <gtest/gtest.h>

#include <optional>

#include "core/deadline/deadline_monitor.hpp"
#include "core/events/event_queue.hpp"

namespace redspot {
namespace {

// C = 2 h, t_c = t_r = 300 s, deadline at 11100 s (65 min of slack).
DeadlineParams params() {
  return DeadlineParams{2 * kHour, 300, 300, 2 * kHour + 3900};
}

TEST(Deadline, SwitchTimeMovesLaterWithEveryCommit) {
  const DeadlineParams p = params();
  // Nothing committed: no restart owed, only the final t_c reserve.
  EXPECT_EQ(deadline_switch_time(p, 0), 3600);
  // Committed progress shrinks C_r but adds the t_r restore debt.
  EXPECT_EQ(deadline_switch_time(p, 3600), 6900);
  // Everything committed: only the t_r restore and final t_c reserve remain.
  EXPECT_EQ(deadline_switch_time(p, 7200), 10500);
}

TEST(Deadline, MarginDecaysLinearlyAndGoesNegative) {
  const DeadlineParams p = params();
  EXPECT_EQ(deadline_margin(p, 0, 0), 3600);
  EXPECT_EQ(deadline_margin(p, 0, 1800), 1800);
  EXPECT_EQ(deadline_margin(p, 0, 3600), 0);
  EXPECT_EQ(deadline_margin(p, 0, 4000), -400);  // guarantee already blown
  // A commit restores margin by the committed amount minus the t_r debt.
  EXPECT_EQ(deadline_margin(p, 3600, 3600), 3300);
}

TEST(Deadline, TriggerWaitsOutAnInFlightCheckpoint) {
  const DeadlineParams p = params();
  EXPECT_EQ(decide_at_trigger(p, 0, 3600, /*ckpt_in_flight=*/true, 3600),
            DeadlineAction::kWait);
  // In-flight wins even with no leader.
  EXPECT_EQ(decide_at_trigger(p, 0, 3600, true, std::nullopt),
            DeadlineAction::kWait);
}

TEST(Deadline, TriggerForcesACheckpointOnlyForWorthwhileProgress) {
  const DeadlineParams p = params();
  // Leader banked 3600 s of unprotected progress > t_c: protect it first.
  EXPECT_EQ(decide_at_trigger(p, 0, 3600, false, 3600),
            DeadlineAction::kForceCheckpoint);
  // Progress not exceeding committed + t_c is not worth a write that
  // costs as much: switch.
  EXPECT_EQ(decide_at_trigger(p, 0, 3600, false, 300),
            DeadlineAction::kSwitchToOnDemand);
  EXPECT_EQ(decide_at_trigger(p, 3600, 6900, false, 3900),
            DeadlineAction::kSwitchToOnDemand);
  // No running zone at all: nothing to protect.
  EXPECT_EQ(decide_at_trigger(p, 0, 3600, false, std::nullopt),
            DeadlineAction::kSwitchToOnDemand);
}

TEST(Deadline, LateTriggerNeverForcesACheckpoint) {
  const DeadlineParams p = params();
  // Fired past the due instant (a re-armed trigger that was already
  // overdue): the t_c reserve is part-spent, so a forced write could no
  // longer be covered — switch immediately even with a strong leader.
  EXPECT_EQ(decide_at_trigger(p, 0, 3700, false, 3700),
            DeadlineAction::kSwitchToOnDemand);
}

/// Counts the kDeadlineTrigger entries the calendar dispatches.
struct TriggerCounter final : EventSink {
  int fired = 0;
  void on_queue_event(const Event& event) override {
    if (event.kind == EventKind::kDeadlineTrigger) ++fired;
  }
};

TEST(DeadlineMonitor, ArmsAtSwitchTimeAndFiresOnce) {
  TriggerCounter sink;
  EventQueue queue(0, sink);
  DeadlineMonitor monitor(queue, params());
  EXPECT_FALSE(monitor.armed());

  monitor.rearm(0);
  EXPECT_TRUE(monitor.armed());
  EXPECT_EQ(monitor.switch_time(0), 3600);
  while (queue.step()) {
  }
  EXPECT_EQ(sink.fired, 1);
  EXPECT_EQ(queue.now(), 3600);
  EXPECT_FALSE(monitor.armed());  // one-shot until re-armed
}

TEST(DeadlineMonitor, RearmReplacesThePendingTrigger) {
  TriggerCounter sink;
  EventQueue queue(0, sink);
  DeadlineMonitor monitor(queue, params());

  monitor.rearm(0);
  // A commit re-arms for the later switch time; the old trigger must not
  // also fire.
  monitor.rearm(3600);
  EXPECT_EQ(queue.pending_count(), 1u);
  while (queue.step()) {
  }
  EXPECT_EQ(sink.fired, 1);
  EXPECT_EQ(queue.now(), 6900);
}

TEST(DeadlineMonitor, OverdueRearmClampsToNow) {
  TriggerCounter sink;
  EventQueue queue(0, sink);
  DeadlineMonitor monitor(queue, params());

  // Advance the clock past the uncommitted switch time.
  queue.schedule_at(EventKind::kPriceTick, kNoZone, 5000);
  ASSERT_TRUE(queue.step());
  ASSERT_EQ(queue.now(), 5000);

  monitor.rearm(0);  // switch_time 3600 < now: must not schedule in the past
  ASSERT_TRUE(queue.step());
  EXPECT_EQ(sink.fired, 1);
  EXPECT_EQ(queue.now(), 5000);
  EXPECT_EQ(monitor.margin(0), -1400);
}

TEST(DeadlineMonitor, DisarmCancelsTheTrigger) {
  TriggerCounter sink;
  EventQueue queue(0, sink);
  DeadlineMonitor monitor(queue, params());

  monitor.rearm(0);
  monitor.disarm();
  EXPECT_FALSE(monitor.armed());
  EXPECT_EQ(queue.pending_count(), 0u);
  while (queue.step()) {
  }
  EXPECT_EQ(sink.fired, 0);
  // Disarm is idempotent.
  monitor.disarm();
  EXPECT_FALSE(monitor.armed());
}

}  // namespace
}  // namespace redspot
