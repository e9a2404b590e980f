#include "core/deadline/deadline_monitor.hpp"

#include <algorithm>

namespace redspot {

SimTime deadline_switch_time(const DeadlineParams& params,
                             Duration committed) {
  const Duration remaining = params.total_compute - committed;
  const Duration restart = committed > 0 ? params.restart_cost : 0;
  return params.deadline - remaining - restart - params.checkpoint_cost;
}

Duration deadline_margin(const DeadlineParams& params, Duration committed,
                         SimTime now) {
  return deadline_switch_time(params, committed) - now;
}

DeadlineAction decide_at_trigger(const DeadlineParams& params,
                                 Duration committed, SimTime now,
                                 bool ckpt_in_flight,
                                 std::optional<Duration> leader_progress,
                                 SimTime leader_doom_at) {
  // An in-flight write settles (commit or abort) and re-arms the trigger;
  // deciding before it lands would double-count its t_c.
  if (ckpt_in_flight) return DeadlineAction::kWait;
  const SimTime due = deadline_switch_time(params, committed);
  // A leader whose announced kill is less than t_c away dies before a
  // forced write commits — the gamble's upside is gone while the downside
  // (burning the reserve) remains, so switch instead.
  if (leader_doom_at < now + params.checkpoint_cost)
    return DeadlineAction::kSwitchToOnDemand;
  // A forced checkpoint is only safe while the margin is not yet negative
  // (due == now): if it dies mid-write, switching right after still meets
  // the deadline thanks to the reserved t_c. A negative margin (reached
  // via an aborted write) forbids another gamble. And it must buy more
  // margin than the t_c it costs, else it only postpones the inevitable —
  // unless the regime announces kills at least t_c ahead, in which case
  // the leader's write (unannounced, or with t_c of warning left) is
  // guaranteed to commit and any positive gain is free. Either way a first
  // commit makes the switch owe t_r it did not owe before, so from nothing
  // committed the write must bank more than t_r or it breaks the deadline.
  const Duration write_gain =
      params.notice_lead >= params.checkpoint_cost ? 0
                                                   : params.checkpoint_cost;
  const Duration required_gain =
      std::max(write_gain, committed > 0 ? 0 : params.restart_cost);
  if (due == now && leader_progress &&
      *leader_progress > committed + required_gain) {
    return DeadlineAction::kForceCheckpoint;
  }
  return DeadlineAction::kSwitchToOnDemand;
}

void DeadlineMonitor::rearm(Duration committed) {
  queue_.cancel(event_);
  event_ = queue_.schedule_at(EventKind::kDeadlineTrigger, kNoZone,
                              std::max(queue_.now(), switch_time(committed)));
}

void DeadlineMonitor::disarm() { queue_.cancel(event_); }

}  // namespace redspot
