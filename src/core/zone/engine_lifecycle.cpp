// Zone lifecycle choreography: price ticks, instance acquisition, restart,
// termination (out-of-bid, notices, user), and completion — Algorithm 1's
// per-zone handlers, driving each ZoneMachine through its transitions.
#include <algorithm>

#include "app/application.hpp"
#include "core/engine.hpp"

namespace redspot {

void Engine::on_price_tick() {
  tick_event_ = 0;
  if (done_) return;

  const bool had_active = any_zone_active();
  bool terminated_any = false;
  for (std::size_t z : config_.zones) {
    ZoneMachine& zone = zone_at(z);
    const Money p = price(z);
    switch (zone.state()) {
      case ZoneState::kQueued:
      case ZoneState::kRestarting:
      case ZoneState::kRunning:
      case ZoneState::kCheckpointing:
      case ZoneState::kRebalanceWarned:
        if (p > config_.bid && !zone.doomed()) {
          if (options_.regime.rebalance_notice > 0 && zone.running()) {
            deliver_notice(z);
            if (zone.state() == ZoneState::kDown) terminated_any = true;
          } else {
            terminate_out_of_bid(z);
            terminated_any = true;
          }
        }
        break;
      case ZoneState::kDown:
        if (p <= config_.bid) zone.wake();
        break;
      case ZoneState::kWaiting:
        if (p > config_.bid) zone.sleep();
        break;
      case ZoneState::kStopped:
        if (config_.policy->should_resume(*this, z)) zone.resume();
        break;
    }
  }
  if (had_active && !any_zone_active()) ++result_.full_outages;

  // The switch to on-demand cancels the tick chain, so a tick can never
  // observe the on-demand phase.
  REDSPOT_CHECK(!on_demand_phase_);

  if (strategy_->dynamic()) {
    consult_strategy(terminated_any ? DecisionPoint::kZoneTerminated
                                    : DecisionPoint::kPriceTick);
  }
  if (!done_ && !on_demand_phase_ && !coord_.in_flight() &&
      policy_checkpoint_allowed() && any_zone_running() &&
      config_.policy->checkpoint_condition(*this)) {
    start_checkpoint(std::nullopt);
  }
  reconcile();

  if (done_ || on_demand_phase_) return;
  const SimTime next = price_step_floor(now()) + market_->traces().step();
  if (next <= experiment_.deadline_time() && next < market_->trace_end()) {
    tick_event_ = queue_.schedule_at(EventKind::kPriceTick, kNoZone, next);
  }
}

void Engine::reconcile() {
  if (done_ || on_demand_phase_) return;
  if (any_zone_active()) return;
  // Algorithm 1 lines 29-35: with no instance up, every waiting zone
  // restarts from the previous checkpoint.
  for (std::size_t z : config_.zones) {
    if (zone_at(z).state() == ZoneState::kWaiting) request_instance(z);
  }
}

void Engine::request_instance(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  z.request();
  const Duration delay = market_->sample_queue_delay(queue_rng_);
  result_.queue_delay_total += delay;
  z.ready_event = queue_.schedule_in(EventKind::kInstanceReady, zone, delay);
}

void Engine::on_instance_ready(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  z.ready_event = 0;
  REDSPOT_CHECK(z.state() == ZoneState::kQueued);
  const Money rate = price(zone);
  if (rate > config_.bid) {
    // The price moved above the bid at this very instant (the tick event
    // carrying the termination is ordered after us): the request dies
    // unfulfilled.
    terminate_out_of_bid(zone);
    return;
  }
  if (injector_.request_rejected()) {
    // EC2 "insufficient capacity": the request is rejected at fulfilment.
    // Retry with exponential backoff + jitter, then re-queue; the zone
    // stays kQueued (no instance, nothing billed) throughout.
    const int attempt = z.note_rejected();
    const Duration backoff = injector_.backoff_delay(attempt);
    notify_fault(FaultEvent::Kind::kRequestRejection, zone, backoff);
    const Duration requeue = market_->sample_queue_delay(queue_rng_);
    result_.queue_delay_total += requeue;
    z.ready_event =
        queue_.schedule_in(EventKind::kInstanceReady, zone, backoff + requeue);
    return;
  }
  billing_.spot_started(zone, now(), rate);
  z.cycle_event = queue_.schedule_at(EventKind::kCycleBoundary, zone,
                                     billing_.cycle_end(zone));
  const SimTime pre = billing_.cycle_end(zone) - experiment_.costs.checkpoint;
  if ((config_.policy->wants_pre_boundary_checks() || strategy_->dynamic()) &&
      pre > now()) {
    z.preboundary_event =
        queue_.schedule_at(EventKind::kPreBoundary, zone, pre);
  }

  const Duration target = store_.latest_progress();
  if (target > 0) {
    z.begin_restart(target);
    z.restart_event = queue_.schedule_in(EventKind::kRestartDone, zone,
                                         experiment_.costs.restart);
  } else {
    // Nothing to load: the application starts from its initial state
    // (Figure 1 — no restart cost at T_b).
    start_computing(zone, 0);
  }
}

void Engine::on_restart_done(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  z.restart_event = 0;
  REDSPOT_CHECK(z.state() == ZoneState::kRestarting);
  if (injector_.restart_fails()) {
    // The load failed. Retry from the newest verified checkpoint (it may
    // have advanced while this load was in flight), paying t_r again; a
    // store with nothing left to load degrades to a from-scratch start.
    notify_fault(FaultEvent::Kind::kRestartFailure, zone);
    const Duration target = store_.latest_progress();
    if (target > 0) {
      z.retry_restart(target);
      z.restart_event = queue_.schedule_in(EventKind::kRestartDone, zone,
                                           experiment_.costs.restart);
      return;
    }
    start_computing(zone, 0);
    return;
  }
  ++result_.restarts;
  start_computing(zone, z.restart_target());
}

void Engine::start_computing(std::size_t zone, Duration progress_base) {
  ZoneMachine& z = zone_at(zone);
  z.begin_compute(now(), progress_base);
  const Duration remaining =
      std::max<Duration>(0, experiment_.app.total_compute - progress_base);
  queue_.cancel(z.completion_event);
  z.completion_event =
      queue_.schedule_in(EventKind::kZoneCompletion, zone, remaining);
  reschedule_policy_checkpoint();
}

// ---------------------------------------------------------------------------
// Terminations

// Notice regimes: the market announces the kill `rebalance_notice` ahead.
// The kill is scheduled here, at the tick, so a kill on the price grid
// still precedes that instant's tick (which may wake the zone again). The
// typed kRebalanceNotice event carries the warning (after the tick's own
// handling, in FIFO order, when on time). The fault plan can drop the
// notice (abrupt 2013-style kill) or deliver it late, which shrinks the
// usable warning but never moves the kill.
void Engine::deliver_notice(std::size_t zone) {
  const Duration lead = options_.regime.rebalance_notice;
  const FaultInjector::NoticeDelivery notice = injector_.notice_delivery(lead);
  if (notice.dropped) {
    notify_fault(FaultEvent::Kind::kNoticeDropped, zone);
    terminate_out_of_bid(zone);
    return;
  }
  ZoneMachine& z = zone_at(zone);
  z.mark_doomed(now() + lead);
  z.doom_event = queue_.schedule_at(EventKind::kDoom, zone, z.doom_at());
  if (notice.lag > 0) notify_fault(FaultEvent::Kind::kNoticeLate, zone);
  z.rebalance_event =
      queue_.schedule_in(EventKind::kRebalanceNotice, zone, notice.lag);
}

// The warned zone flips to kRebalanceWarned and keeps computing until the
// kill; an emergency checkpoint lands exactly at the kill instant when the
// remaining warning can fit one (warning >= t_c).
void Engine::on_rebalance_notice(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  z.rebalance_event = 0;
  if (done_ || !z.running()) return;
  z.warn_rebalance();
  const SimTime ckpt_start = z.doom_at() - experiment_.costs.checkpoint;
  if (ckpt_start >= now() && policy_checkpoint_allowed()) {
    z.emergency_ckpt_event = queue_.schedule_at(
        EventKind::kEmergencyCheckpoint, zone, ckpt_start);
  }
}

void Engine::on_emergency_checkpoint(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  z.emergency_ckpt_event = 0;
  if (done_ || coord_.in_flight() || !z.computing()) return;
  // A policy write that landed since the notice may already hold
  // everything this one would capture.
  if (iteration_aligned(experiment_.app, zone_progress(zone)) <=
      store_.latest_progress())
    return;
  start_checkpoint(zone);
}

void Engine::on_doom(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  z.doom_event = 0;
  if (done_ || !z.active()) return;
  const bool had_active = any_zone_active();
  terminate_out_of_bid(zone);  // commits a just-finished write, bills free
  if (had_active && !any_zone_active()) ++result_.full_outages;
  reconcile();
}

void Engine::terminate_out_of_bid(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  REDSPOT_CHECK(z.active());
  settle_zone_checkpoint(zone);
  if (z.state() == ZoneState::kQueued) {
    // The request had not been fulfilled; nothing was billed.
  } else {
    billing_.spot_terminated(zone, now(), TerminationCause::kOutOfBid);
  }
  z.cancel_events(queue_);
  z.terminate();
  ++result_.out_of_bid_terminations;
  notify_termination(zone, TerminationCause::kOutOfBid);
}

void Engine::user_terminate(std::size_t zone, bool at_boundary) {
  ZoneMachine& z = zone_at(zone);
  if (!z.active()) return;
  settle_zone_checkpoint(zone);
  if (z.state() != ZoneState::kQueued) {
    // A request still queued is simply cancelled: nothing was billed.
    if (at_boundary) {
      billing_.spot_stopped_at_boundary(zone, now());
    } else {
      billing_.spot_terminated(zone, now(), TerminationCause::kUser);
    }
  }
  z.cancel_events(queue_);
  z.terminate();
  notify_termination(zone, TerminationCause::kUser);
}

// ---------------------------------------------------------------------------
// Completion

void Engine::on_zone_completion(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  z.completion_event = 0;
  REDSPOT_CHECK(z.computing());
  REDSPOT_CHECK(zone_progress(zone) >= experiment_.app.total_compute);
  for (std::size_t other : config_.zones) user_terminate(other, false);
  finish(now(), true);
}

}  // namespace redspot
