// Billing-cycle choreography: hour boundaries (charge + reopen, manual
// stops, deferred reconfigurations) and the pre-boundary check t_c before
// each one. Pure charging rules live in ZoneBilling / market/billing; this
// file owns only their event-loop wiring.
#include "core/engine.hpp"

namespace redspot {

void Engine::on_cycle_boundary(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  z.cycle_event = 0;
  if (done_) return;

  // Large-bid manual stop: the protective checkpoint (started at
  // boundary - t_c) completes exactly now; commit it (user_terminate
  // settles the write), pay the full hour, and sit out until the price
  // recovers.
  if (z.manual_stop_pending()) {
    const bool had_active = any_zone_active();
    user_terminate(zone, /*at_boundary=*/true);
    z.stop();
    if (had_active && !any_zone_active()) ++result_.full_outages;
    reconcile();
    return;
  }

  if (strategy_->dynamic()) {
    consult_strategy(DecisionPoint::kCycleEnd);
    if (pending_config_) {
      const EngineConfig next = *pending_config_;
      apply_config(next, /*at_boundary_of=*/true, zone);
    }
  }
  if (done_ || on_demand_phase_) return;

  // The zone may have been terminated by the reconfiguration above.
  if (!billing_.spot_running(zone) || !z.active()) return;

  billing_.cycle_boundary(zone, price(zone));
  z.cycle_event = queue_.schedule_at(EventKind::kCycleBoundary, zone,
                                     billing_.cycle_end(zone));
  const SimTime pre = billing_.cycle_end(zone) - experiment_.costs.checkpoint;
  queue_.cancel(z.preboundary_event);
  if ((config_.policy->wants_pre_boundary_checks() || strategy_->dynamic()) &&
      pre > now()) {
    z.preboundary_event =
        queue_.schedule_at(EventKind::kPreBoundary, zone, pre);
  }
}

void Engine::on_pre_boundary(std::size_t zone) {
  ZoneMachine& z = zone_at(zone);
  z.preboundary_event = 0;
  if (done_ || on_demand_phase_) return;
  if (!z.active()) return;

  // Large-bid: decide whether to ride the next hour or stop at the
  // boundary; stopping wants a checkpoint that completes exactly at it.
  if (config_.policy->wants_pre_boundary_checks() &&
      config_.policy->should_manual_stop(*this, zone)) {
    z.set_manual_stop_pending(true);
    if (!coord_.in_flight() && z.computing() && policy_checkpoint_allowed())
      start_checkpoint(zone);
    return;
  }

  // Adaptive: if a disruptive reconfiguration is pending, protect the
  // leading zone's progress with a checkpoint that lands on the boundary.
  if (strategy_->dynamic()) {
    consult_strategy(DecisionPoint::kPreBoundary);
    if (pending_config_ && !coord_.in_flight() &&
        z.computing() && leading_zone() == zone &&
        policy_checkpoint_allowed() &&
        zone_progress(zone) > store_.latest_progress()) {
      start_checkpoint(zone);
    }
  }
}

}  // namespace redspot
