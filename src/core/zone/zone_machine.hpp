// Per-zone lifecycle state machine.
//
// Each availability zone a run uses is one ZoneMachine: the zone's state,
// its compute-progress accounting, and the handles of the calendar events
// that belong to it. Transitions go through named operations (wake, request,
// begin_compute, terminate, ...) that enforce the legal-transition table in
// zone_state.cpp — an illegal transition throws instead of silently
// corrupting a run. Every transition is reported to the ZoneTransitionSink
// (the engine), which fans it out to the observer layer.
//
// Progress accounting: progress_base_ is compute time completed as of
// computing_since_; while kRunning, progress() grows with the clock. A
// checkpoint freezes the base at the snapshot instant (begin_checkpoint),
// so progress during the write — which is lost if the zone dies — is never
// counted until compute resumes.
#pragma once

#include <cstddef>

#include "common/time.hpp"
#include "core/events/event.hpp"
#include "core/zone/zone_state.hpp"

namespace redspot {

class EventQueue;

/// Receives every zone state transition (implemented by the engine).
class ZoneTransitionSink {
 public:
  virtual void on_zone_transition(std::size_t zone, ZoneState from,
                                  ZoneState to) = 0;

 protected:
  ~ZoneTransitionSink() = default;
};

class ZoneMachine {
 public:
  ZoneMachine(std::size_t id, ZoneTransitionSink* sink);

  std::size_t id() const { return id_; }
  ZoneState state() const { return state_; }

  /// Holds or is acquiring an instance (kQueued/kRestarting/kRunning/
  /// kCheckpointing).
  bool active() const { return is_active(state_); }

  /// Has a billed, running instance (kRunning, kCheckpointing or
  /// kRebalanceWarned).
  bool running() const {
    return state_ == ZoneState::kRunning ||
           state_ == ZoneState::kCheckpointing ||
           state_ == ZoneState::kRebalanceWarned;
  }

  /// Compute progress is accruing (kRunning or kRebalanceWarned).
  bool computing() const { return is_computing(state_); }

  // --- transitions (throw on a state not allowing them) -----------------

  /// Price dropped under the bid: kDown -> kWaiting.
  void wake();

  /// Price rose over the bid while unused: kWaiting -> kDown.
  void sleep();

  /// Spot request issued: kWaiting or kDown -> kQueued. Resets the
  /// rejected-request attempt counter.
  void request();

  /// Instance granted, restoring from a checkpoint: kQueued -> kRestarting.
  /// `target` is the committed progress the restore runs toward.
  void begin_restart(Duration target);

  /// Restart load failed; the retry stays in kRestarting but may aim at a
  /// different committed progress.
  void retry_restart(Duration target);

  /// Compute (re)starts at `now` with `progress_base` already done:
  /// kQueued, kRestarting or kCheckpointing -> kRunning.
  void begin_compute(SimTime now, Duration progress_base);

  /// Checkpoint write starts: kRunning or kRebalanceWarned ->
  /// kCheckpointing. Freezes progress_base_ at progress(now) — work during
  /// the write is at risk and only re-enters the count when compute
  /// resumes.
  void begin_checkpoint(SimTime now);

  /// Capacity-rebalance warning received (regime notice): kRunning ->
  /// kRebalanceWarned, or flag-only while kCheckpointing (the resume after
  /// the write lands in kRebalanceWarned). Requires running().
  void warn_rebalance();

  /// Instance gone (out-of-bid, user termination): any active state ->
  /// kDown. Clears the pending manual-stop flag.
  void terminate();

  /// Manual stop after termination: kDown -> kStopped (out of the market
  /// until the price recovers).
  void stop();

  /// Price recovered for a manually stopped zone: kStopped -> kWaiting.
  void resume();

  /// Forces an inactive zone (kWaiting/kStopped) to kDown; no-op when
  /// already kDown. Reconfiguration uses this to retire zones whose
  /// waiting state is stale under a new bid or zone set.
  void force_down();

  // --- progress ---------------------------------------------------------

  /// Compute time completed as of `now` (grows only while computing —
  /// kRunning or kRebalanceWarned).
  Duration progress(SimTime now) const {
    if (is_computing(state_))
      return progress_base_ + (now - computing_since_);
    return progress_base_;
  }

  Duration progress_base() const { return progress_base_; }
  SimTime computing_since() const { return computing_since_; }

  /// Committed progress a kRestarting zone is restoring toward.
  Duration restart_target() const { return restart_target_; }

  // --- request retry accounting ----------------------------------------

  /// Records a rejected spot request; returns the attempt number (1-based).
  int note_rejected() { return ++request_attempts_; }

  // --- flags ------------------------------------------------------------

  /// The announced out-of-bid kill instant of the current instance
  /// (kNever when no kill is announced).
  SimTime doom_at() const { return doom_at_; }
  bool doomed() const { return doom_at_ != kNever; }
  void mark_doomed(SimTime kill_at) { doom_at_ = kill_at; }

  /// A rebalance warning has been received for the current instance.
  bool rebalance_warned() const { return rebalance_warned_; }

  bool manual_stop_pending() const { return manual_stop_pending_; }
  void set_manual_stop_pending(bool pending) {
    manual_stop_pending_ = pending;
  }

  // --- calendar event handles ------------------------------------------
  // Owned by the zone so one call cancels everything on teardown; public
  // because the engine schedules into them directly.
  EventId ready_event = 0;        ///< kInstanceReady / kRestartDone retry
  EventId restart_event = 0;      ///< kRestartDone
  EventId cycle_event = 0;        ///< kCycleBoundary
  EventId preboundary_event = 0;  ///< kPreBoundary
  EventId completion_event = 0;   ///< kZoneCompletion
  EventId doom_event = 0;         ///< kDoom
  EventId emergency_ckpt_event = 0;  ///< kEmergencyCheckpoint
  EventId rebalance_event = 0;    ///< kRebalanceNotice

  /// Cancels every pending event of this zone and clears the doom.
  void cancel_events(EventQueue& queue);

 private:
  void transition(ZoneState to);

  std::size_t id_;
  ZoneTransitionSink* sink_;
  ZoneState state_ = ZoneState::kDown;
  Duration progress_base_ = 0;
  SimTime computing_since_ = 0;
  Duration restart_target_ = 0;
  int request_attempts_ = 0;
  bool manual_stop_pending_ = false;
  SimTime doom_at_ = kNever;
  bool rebalance_warned_ = false;
};

}  // namespace redspot
