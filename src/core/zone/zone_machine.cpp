#include "core/zone/zone_machine.hpp"

#include "common/check.hpp"
#include "core/events/event_queue.hpp"

namespace redspot {

ZoneMachine::ZoneMachine(std::size_t id, ZoneTransitionSink* sink)
    : id_(id), sink_(sink) {
  REDSPOT_CHECK(sink != nullptr);
}

void ZoneMachine::transition(ZoneState to) {
  REDSPOT_CHECK_MSG(transition_allowed(state_, to),
                    "zone " << id_ << ": illegal transition "
                            << to_string(state_) << " -> " << to_string(to));
  const ZoneState from = state_;
  state_ = to;
  sink_->on_zone_transition(id_, from, to);
}

void ZoneMachine::wake() {
  REDSPOT_CHECK(state_ == ZoneState::kDown);
  transition(ZoneState::kWaiting);
}

void ZoneMachine::sleep() {
  REDSPOT_CHECK(state_ == ZoneState::kWaiting);
  transition(ZoneState::kDown);
}

void ZoneMachine::request() {
  REDSPOT_CHECK(state_ == ZoneState::kWaiting ||
                state_ == ZoneState::kDown);
  request_attempts_ = 0;
  transition(ZoneState::kQueued);
}

void ZoneMachine::begin_restart(Duration target) {
  REDSPOT_CHECK(state_ == ZoneState::kQueued);
  restart_target_ = target;
  transition(ZoneState::kRestarting);
}

void ZoneMachine::retry_restart(Duration target) {
  REDSPOT_CHECK(state_ == ZoneState::kRestarting);
  restart_target_ = target;
}

void ZoneMachine::begin_compute(SimTime now, Duration progress_base) {
  REDSPOT_CHECK(state_ == ZoneState::kQueued ||
                state_ == ZoneState::kRestarting ||
                state_ == ZoneState::kCheckpointing);
  progress_base_ = progress_base;
  computing_since_ = now;
  // A zone resuming compute under a standing rebalance warning (e.g.
  // after its emergency write committed) stays in the warned state.
  transition(rebalance_warned_ ? ZoneState::kRebalanceWarned
                               : ZoneState::kRunning);
}

void ZoneMachine::begin_checkpoint(SimTime now) {
  REDSPOT_CHECK(computing());
  progress_base_ = progress(now);  // freeze before the state flips
  transition(ZoneState::kCheckpointing);
}

void ZoneMachine::warn_rebalance() {
  REDSPOT_CHECK(running());
  rebalance_warned_ = true;
  if (state_ == ZoneState::kRunning) transition(ZoneState::kRebalanceWarned);
  // kCheckpointing: flag only — begin_compute after the write lands in
  // kRebalanceWarned.
}

void ZoneMachine::terminate() {
  REDSPOT_CHECK(active());
  manual_stop_pending_ = false;
  rebalance_warned_ = false;
  transition(ZoneState::kDown);
}

void ZoneMachine::stop() {
  REDSPOT_CHECK(state_ == ZoneState::kDown);
  transition(ZoneState::kStopped);
}

void ZoneMachine::resume() {
  REDSPOT_CHECK(state_ == ZoneState::kStopped);
  transition(ZoneState::kWaiting);
}

void ZoneMachine::force_down() {
  if (state_ == ZoneState::kDown) return;
  REDSPOT_CHECK(!active());
  transition(ZoneState::kDown);
}

void ZoneMachine::cancel_events(EventQueue& queue) {
  queue.cancel(ready_event);
  queue.cancel(restart_event);
  queue.cancel(cycle_event);
  queue.cancel(preboundary_event);
  queue.cancel(completion_event);
  queue.cancel(doom_event);
  queue.cancel(emergency_ckpt_event);
  queue.cancel(rebalance_event);
  doom_at_ = kNever;
  rebalance_warned_ = false;
}

}  // namespace redspot
