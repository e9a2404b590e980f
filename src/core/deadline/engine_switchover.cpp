// Deadline-trigger choreography and the switch to on-demand (Algorithm 1,
// line 11). The margin arithmetic and the trigger decision are the pure
// functions in deadline_monitor.hpp; this file owns their wiring into the
// run: re-arming on commits, the final forced checkpoint, and the
// switchover itself.
#include "core/engine.hpp"

namespace redspot {

void Engine::reschedule_deadline_trigger() {
  if (done_ || on_demand_phase_) return;
  monitor_.rearm(store_.latest_progress());
}

void Engine::on_deadline_trigger() {
  if (done_ || on_demand_phase_) return;
  const Duration committed = store_.latest_progress();
  if (monitor_.switch_time(committed) > now()) {
    // A commit since arming moved the switch instant out; chase it.
    monitor_.rearm(committed);
    return;
  }
  std::optional<std::size_t> leader = leading_zone();
  std::optional<Duration> leader_progress;
  SimTime leader_doom_at = kNever;
  if (leader) {
    leader_progress = zone_progress(*leader);
    leader_doom_at = zone_at(*leader).doom_at();
  }
  switch (decide_at_trigger(monitor_.params(), committed, now(),
                            coord_.in_flight(), leader_progress,
                            leader_doom_at)) {
    case DeadlineAction::kWait:
      // The in-flight commit (or its abort on an untimely failure)
      // re-arms this trigger.
      return;
    case DeadlineAction::kForceCheckpoint:
      // Committing the leader's speculative progress buys back more
      // margin than the t_c it costs: force one and stay on spot.
      start_checkpoint(leader);
      return;
    case DeadlineAction::kSwitchToOnDemand:
      begin_switch_to_on_demand();
      return;
  }
}

void Engine::begin_switch_to_on_demand() {
  on_demand_phase_ = true;
  result_.switched_to_on_demand = true;
  queue_.cancel(scheduled_ckpt_event_);
  monitor_.disarm();
  REDSPOT_CHECK(!coord_.in_flight());
  complete_on_demand_switch();
}

void Engine::complete_on_demand_switch() {
  for (std::size_t z : config_.zones) user_terminate(z, false);
  queue_.cancel(tick_event_);

  const Duration committed = store_.latest_progress();
  if (committed >= experiment_.app.total_compute) {
    finish(now(), true);
    return;
  }
  const Duration restart = committed > 0 ? experiment_.costs.restart : 0;
  const Duration od =
      restart + (experiment_.app.total_compute - committed);
  billing_.on_demand_usage(now(), od, market_->on_demand_rate());
  result_.on_demand_seconds = od;
  const SimTime finish_at = now() + od;
  REDSPOT_CHECK_MSG(finish_at <= experiment_.deadline_time(),
                    "deadline guarantee violated by " << format_duration(
                        finish_at - experiment_.deadline_time()));
  queue_.schedule_at(EventKind::kOnDemandFinish, kNoZone, finish_at);
}

}  // namespace redspot
