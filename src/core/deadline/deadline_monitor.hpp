// Deadline-margin monitoring and the on-demand switchover decision.
//
// The paper's deadline guarantee (Section 3.3): with C_r compute remaining
// beyond the last committed checkpoint, a checkpoint write costing t_c and
// a restart costing t_r, the margin at time `now` against deadline T is
//
//   M = (T - now) - (C_r + t_c + t_r)
//
// Once M hits zero the run must leave the spot market for on-demand or it
// can no longer guarantee completion. switch_time() is the instant M
// reaches zero given current committed progress; it moves later with every
// commit, so the monitor is re-armed after each one. The t_c term covers a
// final protective checkpoint; t_r is owed only when there is committed
// progress to restore.
//
// decide_at_trigger() is the pure decision at the armed instant (exercised
// directly by deadline_test): wait out an in-flight write, force a final
// checkpoint when a running zone has banked enough unprotected progress to
// be worth protecting, otherwise switch.
#pragma once

#include <optional>

#include "common/time.hpp"
#include "core/events/event_queue.hpp"

namespace redspot {

/// The run-wide constants the margin formula needs.
struct DeadlineParams {
  Duration total_compute = 0;    ///< C: total compute the app needs
  Duration checkpoint_cost = 0;  ///< t_c
  Duration restart_cost = 0;     ///< t_r
  SimTime deadline = 0;          ///< T: absolute deadline instant
  /// Termination-notice lead time of the market regime (0 when kills land
  /// unannounced). It does NOT shrink the margin's t_c reserve — the
  /// reserve must still absorb a forced write that dies mid-flight and
  /// the wait for an in-flight write at the trigger — but it changes the
  /// trigger decision: see decide_at_trigger().
  Duration notice_lead = 0;
};

/// Latest instant the run may stay on spot with `committed` progress.
SimTime deadline_switch_time(const DeadlineParams& params,
                             Duration committed);

/// Margin M at `now` (negative means the guarantee is already blown).
Duration deadline_margin(const DeadlineParams& params, Duration committed,
                         SimTime now);

enum class DeadlineAction {
  kWait,              ///< checkpoint in flight; its commit re-arms us
  kForceCheckpoint,   ///< protect a leader's unprotected progress first
  kSwitchToOnDemand,  ///< margin exhausted; leave the spot market
};

/// Decision at the trigger instant. `leader_progress` is the best live
/// progress of any running zone, if one exists; `leader_doom_at` is that
/// zone's announced kill instant (kNever when none is announced). The
/// announcement changes the gamble's odds: a leader killed less than t_c
/// from now dies before the forced write commits, so it never gambles; a
/// leader with at least t_c of warning left is as safe as an unannounced
/// one. An unannounced leader's kill must be announced at least
/// notice_lead ahead, so when notice_lead >= t_c the forced write is
/// guaranteed to finish and ANY unprotected progress is worth banking.
DeadlineAction decide_at_trigger(const DeadlineParams& params,
                                 Duration committed, SimTime now,
                                 bool ckpt_in_flight,
                                 std::optional<Duration> leader_progress,
                                 SimTime leader_doom_at = kNever);

/// Owns the deadline-trigger calendar event: armed at switch_time (clamped
/// to now) and re-armed on every checkpoint commit. The kDeadlineTrigger
/// entry dispatches through the queue's sink like every other kind.
class DeadlineMonitor {
 public:
  DeadlineMonitor(EventQueue& queue, DeadlineParams params)
      : queue_(queue), params_(params) {}

  const DeadlineParams& params() const { return params_; }

  SimTime switch_time(Duration committed) const {
    return deadline_switch_time(params_, committed);
  }
  Duration margin(Duration committed) const {
    return deadline_margin(params_, committed, queue_.now());
  }

  /// (Re-)arms the trigger for the given committed progress.
  void rearm(Duration committed);

  /// Cancels the trigger (switchover under way; no more spot decisions).
  void disarm();

  /// True while the trigger is pending: false once it fired or was
  /// disarmed.
  bool armed() const { return queue_.pending(event_); }

 private:
  EventQueue& queue_;
  DeadlineParams params_;
  EventId event_ = 0;
};

}  // namespace redspot
