// Zone state machine: the legal-transition table is pinned exhaustively
// (every one of the 8x8 pairs), and every ZoneMachine operation is driven
// through its legal states plus a rejected illegal attempt from a state
// that must not allow it.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/events/event_queue.hpp"
#include "core/zone/zone_machine.hpp"
#include "core/zone/zone_state.hpp"

namespace redspot {
namespace {

using S = ZoneState;

/// The 20 legal transitions, straight from the design table.
const std::pair<S, S> kLegal[] = {
    {S::kDown, S::kWaiting},        {S::kDown, S::kQueued},
    {S::kDown, S::kStopped},        {S::kWaiting, S::kDown},
    {S::kWaiting, S::kQueued},      {S::kQueued, S::kRestarting},
    {S::kQueued, S::kRunning},      {S::kQueued, S::kDown},
    {S::kRestarting, S::kRunning},  {S::kRestarting, S::kDown},
    {S::kRunning, S::kCheckpointing}, {S::kRunning, S::kDown},
    {S::kRunning, S::kRebalanceWarned},
    {S::kCheckpointing, S::kRunning}, {S::kCheckpointing, S::kDown},
    {S::kCheckpointing, S::kRebalanceWarned},
    {S::kRebalanceWarned, S::kCheckpointing},
    {S::kRebalanceWarned, S::kDown},
    {S::kStopped, S::kWaiting},     {S::kStopped, S::kDown},
};

bool in_table(S from, S to) {
  for (const auto& [f, t] : kLegal) {
    if (f == from && t == to) return true;
  }
  return false;
}

TEST(ZoneState, TransitionTableMatchesTheDesignExactly) {
  int allowed = 0;
  for (std::size_t f = 0; f < kNumZoneStates; ++f) {
    for (std::size_t t = 0; t < kNumZoneStates; ++t) {
      const S from = static_cast<S>(f);
      const S to = static_cast<S>(t);
      EXPECT_EQ(transition_allowed(from, to), in_table(from, to))
          << to_string(from) << " -> " << to_string(to);
      if (transition_allowed(from, to)) ++allowed;
    }
  }
  EXPECT_EQ(allowed, 20);
}

TEST(ZoneState, ActivityPredicatesAndNames) {
  EXPECT_FALSE(is_active(S::kDown));
  EXPECT_FALSE(is_active(S::kWaiting));
  EXPECT_FALSE(is_active(S::kStopped));
  EXPECT_TRUE(is_active(S::kQueued));
  EXPECT_TRUE(is_active(S::kRestarting));
  EXPECT_TRUE(is_active(S::kRunning));
  EXPECT_TRUE(is_active(S::kCheckpointing));
  EXPECT_TRUE(is_active(S::kRebalanceWarned));

  EXPECT_TRUE(is_computing(S::kRunning));
  EXPECT_TRUE(is_computing(S::kRebalanceWarned));
  EXPECT_FALSE(is_computing(S::kCheckpointing));
  EXPECT_FALSE(is_computing(S::kQueued));

  EXPECT_STREQ(to_string(S::kDown), "down");
  EXPECT_STREQ(to_string(S::kWaiting), "waiting");
  EXPECT_STREQ(to_string(S::kQueued), "queued");
  EXPECT_STREQ(to_string(S::kRestarting), "restarting");
  EXPECT_STREQ(to_string(S::kRunning), "running");
  EXPECT_STREQ(to_string(S::kCheckpointing), "checkpointing");
  EXPECT_STREQ(to_string(S::kStopped), "stopped");
  EXPECT_STREQ(to_string(S::kRebalanceWarned), "rebalance-warned");
}

// --- ZoneMachine -----------------------------------------------------------

struct RecordingSink final : ZoneTransitionSink {
  std::vector<std::tuple<std::size_t, S, S>> seen;
  void on_zone_transition(std::size_t zone, S from, S to) override {
    seen.emplace_back(zone, from, to);
  }
};

TEST(ZoneMachine, FullLifecycleReportsEveryTransition) {
  RecordingSink sink;
  ZoneMachine z(3, &sink);
  EXPECT_EQ(z.state(), S::kDown);
  EXPECT_FALSE(z.active());

  z.wake();                   // down -> waiting
  z.request();                // waiting -> queued
  EXPECT_TRUE(z.active());
  EXPECT_FALSE(z.running());
  z.begin_compute(100, 0);    // queued -> running
  EXPECT_TRUE(z.running());
  z.begin_checkpoint(400);    // running -> checkpointing
  EXPECT_TRUE(z.running());
  z.begin_compute(700, 300);  // checkpointing -> running
  z.terminate();              // running -> down
  z.stop();                   // down -> stopped
  z.resume();                 // stopped -> waiting
  z.sleep();                  // waiting -> down

  const std::vector<std::tuple<std::size_t, S, S>> expected = {
      {3, S::kDown, S::kWaiting},        {3, S::kWaiting, S::kQueued},
      {3, S::kQueued, S::kRunning},      {3, S::kRunning, S::kCheckpointing},
      {3, S::kCheckpointing, S::kRunning}, {3, S::kRunning, S::kDown},
      {3, S::kDown, S::kStopped},        {3, S::kStopped, S::kWaiting},
      {3, S::kWaiting, S::kDown},
  };
  EXPECT_EQ(sink.seen, expected);
}

TEST(ZoneMachine, RestartPathAndRetry) {
  RecordingSink sink;
  ZoneMachine z(0, &sink);
  z.request();  // down -> queued (direct request is legal)
  z.begin_restart(3600);
  EXPECT_EQ(z.state(), S::kRestarting);
  EXPECT_EQ(z.restart_target(), 3600);
  z.retry_restart(7200);  // stays kRestarting, new target
  EXPECT_EQ(z.state(), S::kRestarting);
  EXPECT_EQ(z.restart_target(), 7200);
  z.begin_compute(500, 7200);
  EXPECT_EQ(z.state(), S::kRunning);
}

TEST(ZoneMachine, ProgressGrowsOnlyWhileRunningAndFreezesAtCheckpoint) {
  RecordingSink sink;
  ZoneMachine z(0, &sink);
  z.request();
  EXPECT_EQ(z.progress(50), 0);  // queued: nothing accrues
  z.begin_compute(100, 50);
  EXPECT_EQ(z.progress(100), 50);
  EXPECT_EQ(z.progress(160), 110);
  // The checkpoint snapshot freezes the base; work during the write is at
  // risk and must not be counted until compute resumes.
  z.begin_checkpoint(160);
  EXPECT_EQ(z.progress_base(), 110);
  EXPECT_EQ(z.progress(400), 110);
  z.begin_compute(460, 110);
  EXPECT_EQ(z.progress(500), 150);
  z.terminate();
  // Termination loses everything since the last snapshot: only the frozen
  // base survives (a restart re-runs from the committed checkpoint).
  EXPECT_EQ(z.progress(900), 110);
}

TEST(ZoneMachine, IllegalTransitionsThrow) {
  RecordingSink sink;
  ZoneMachine z(0, &sink);

  // From kDown.
  EXPECT_THROW(z.sleep(), CheckFailure);
  EXPECT_THROW(z.resume(), CheckFailure);
  EXPECT_THROW(z.terminate(), CheckFailure);
  EXPECT_THROW(z.begin_restart(0), CheckFailure);
  EXPECT_THROW(z.retry_restart(0), CheckFailure);
  EXPECT_THROW(z.begin_compute(0, 0), CheckFailure);
  EXPECT_THROW(z.begin_checkpoint(0), CheckFailure);

  z.wake();  // kWaiting
  EXPECT_THROW(z.wake(), CheckFailure);
  EXPECT_THROW(z.stop(), CheckFailure);
  EXPECT_THROW(z.resume(), CheckFailure);
  EXPECT_THROW(z.begin_compute(0, 0), CheckFailure);
  EXPECT_THROW(z.terminate(), CheckFailure);

  z.request();  // kQueued
  EXPECT_THROW(z.wake(), CheckFailure);
  EXPECT_THROW(z.request(), CheckFailure);
  EXPECT_THROW(z.begin_checkpoint(0), CheckFailure);
  EXPECT_THROW(z.force_down(), CheckFailure);  // active zones never force

  z.begin_compute(0, 0);  // kRunning
  EXPECT_THROW(z.request(), CheckFailure);
  EXPECT_THROW(z.begin_restart(0), CheckFailure);
  EXPECT_THROW(z.retry_restart(0), CheckFailure);
  EXPECT_THROW(z.stop(), CheckFailure);
  EXPECT_THROW(z.force_down(), CheckFailure);

  z.begin_checkpoint(10);  // kCheckpointing
  EXPECT_THROW(z.begin_checkpoint(10), CheckFailure);
  EXPECT_THROW(z.request(), CheckFailure);
  EXPECT_THROW(z.force_down(), CheckFailure);

  z.terminate();
  z.stop();  // kStopped
  EXPECT_THROW(z.wake(), CheckFailure);
  EXPECT_THROW(z.request(), CheckFailure);
  EXPECT_THROW(z.sleep(), CheckFailure);
  EXPECT_THROW(z.stop(), CheckFailure);
}

TEST(ZoneMachine, ForceDownRetiresInactiveStatesOnly) {
  RecordingSink sink;
  ZoneMachine z(0, &sink);
  z.force_down();  // already down: no-op, no transition reported
  EXPECT_TRUE(sink.seen.empty());
  z.wake();
  z.force_down();
  EXPECT_EQ(z.state(), S::kDown);
  z.stop();
  z.force_down();
  EXPECT_EQ(z.state(), S::kDown);
}

TEST(ZoneMachine, RequestResetsRejectionAttempts) {
  RecordingSink sink;
  ZoneMachine z(0, &sink);
  z.request();
  EXPECT_EQ(z.note_rejected(), 1);
  EXPECT_EQ(z.note_rejected(), 2);
  z.terminate();
  z.request();  // a fresh request starts the backoff ladder over
  EXPECT_EQ(z.note_rejected(), 1);
}

TEST(ZoneMachine, TerminateClearsManualStopFlag) {
  RecordingSink sink;
  ZoneMachine z(0, &sink);
  z.request();
  z.set_manual_stop_pending(true);
  EXPECT_TRUE(z.manual_stop_pending());
  z.terminate();
  EXPECT_FALSE(z.manual_stop_pending());
}

TEST(ZoneMachine, CancelEventsClearsHandlesAndDoom) {
  RecordingSink sink;
  ZoneMachine z(0, &sink);
  struct NoOpSink final : EventSink {
    void on_queue_event(const Event&) override {}
  } no_op;
  EventQueue queue(0, no_op);
  z.ready_event = queue.schedule_at(EventKind::kInstanceReady, 0, 10);
  z.cycle_event = queue.schedule_at(EventKind::kCycleBoundary, 0, 20);
  z.doom_event = queue.schedule_at(EventKind::kDoom, 0, 30);
  z.mark_doomed(30);
  EXPECT_TRUE(z.doomed());
  EXPECT_EQ(z.doom_at(), 30);
  EXPECT_EQ(queue.pending_count(), 3u);

  z.cancel_events(queue);
  EXPECT_EQ(queue.pending_count(), 0u);
  EXPECT_EQ(z.ready_event, 0u);
  EXPECT_EQ(z.cycle_event, 0u);
  EXPECT_EQ(z.doom_event, 0u);
  EXPECT_FALSE(z.doomed());
  EXPECT_EQ(z.doom_at(), kNever);
}

}  // namespace
}  // namespace redspot
