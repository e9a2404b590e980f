// Zone lifecycle choreography: price ticks, instance acquisition, restart,
// termination (out-of-bid, notices, user), and completion — Algorithm 1's
// per-zone handlers, driving each ZoneMachine through its transitions.
#include <algorithm>

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
          if (options_.termination_notice > 0 && zone.running()) {
            deliver_termination_notice(z);
            if (zone.state() == ZoneState::kDown) terminated_any = true;
          } else if (options_.regime.rebalance_notice > 0 && zone.running()) {
            // Regime notice: the kill is announced via a typed
            // kRebalanceNotice event dispatched at this same instant
            // (after the tick's own handling, in FIFO order), so
            // observers see the warning as a first-class calendar event.
            zone.mark_doomed();
            zone.rebalance_event =
                queue_.schedule_at(EventKind::kRebalanceNotice, z, now());
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

// Appendix-A variant: the market warns before terminating. The fault plan
// can drop the notice (abrupt 2013-style kill) or deliver it late, which
// shrinks the usable warning; the kill instant itself never moves.
void Engine::deliver_termination_notice(std::size_t zone) {
  const FaultInjector::NoticeDelivery notice =
      injector_.notice_delivery(options_.termination_notice);
  if (notice.dropped) {
    notify_fault(FaultEvent::Kind::kNoticeDropped, zone);
    terminate_out_of_bid(zone);
    return;
  }
  if (notice.lag <= 0) {
    on_termination_notice(zone, options_.termination_notice);
    return;
  }
  // Late notice: the zone is already doomed (the price crossed the bid
  // now) but the engine only learns at now + lag, with the remaining
  // warning shortened accordingly.
  ZoneMachine& z = zone_at(zone);
  z.mark_doomed();
  notify_fault(FaultEvent::Kind::kNoticeLate, zone);
  const Duration warning = options_.termination_notice - notice.lag;
  z.doom_event = queue_.schedule_in(
      EventKind::kLateNotice, zone, notice.lag, [this, zone, warning] {
        ZoneMachine& late = zone_at(zone);
        late.doom_event = 0;
        if (done_ || !late.active()) return;
        on_termination_notice(zone, warning);
      });
}

// The doomed zone keeps computing through the notice; an emergency
// checkpoint lands exactly at the termination instant when the remaining
// warning can fit one (warning >= t_c).
void Engine::on_termination_notice(std::size_t zone, Duration warning) {
  ZoneMachine& z = zone_at(zone);
  z.mark_doomed();
  const SimTime doom_at = now() + warning;
  z.doom_event = queue_.schedule_at(EventKind::kDoom, zone, doom_at);
  const SimTime ckpt_start = doom_at - experiment_.costs.checkpoint;
  if (ckpt_start >= now() && policy_checkpoint_allowed()) {
    z.emergency_ckpt_event = queue_.schedule_at(
        EventKind::kEmergencyCheckpoint, zone, ckpt_start, [this, zone] {
          ZoneMachine& doomed_zone = zone_at(zone);
          doomed_zone.emergency_ckpt_event = 0;
          if (done_ || coord_.in_flight() || !doomed_zone.computing()) return;
          start_checkpoint(zone);
        });
  }
}

// Regime rebalance warning: the zone flips to kRebalanceWarned (progress
// keeps accruing) and the notice machinery above schedules the doom and,
// when the lead time fits one, the emergency checkpoint.
void Engine::on_rebalance_notice(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  z.rebalance_event = 0;
  if (done_ || !z.running() || z.rebalance_warned()) return;
  z.warn_rebalance();
  on_termination_notice(zone, options_.regime.rebalance_notice);
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
