// Checkpoint choreography: policy-scheduled starts, the in-flight write
// (CheckpointCoordinator), and settlement — commit, rollback, or abort.
#include <algorithm>

#include "app/application.hpp"
#include "core/engine.hpp"

namespace redspot {

void Engine::reschedule_policy_checkpoint() {
  queue_.cancel(scheduled_ckpt_event_);
  if (done_ || on_demand_phase_) return;
  const SimTime t = config_.policy->schedule_next_checkpoint(*this);
  if (t == kNever) return;
  scheduled_ckpt_event_ = queue_.schedule_at(
      EventKind::kScheduledCheckpoint, kNoZone, std::max(now(), t));
}

void Engine::on_scheduled_checkpoint() {
  scheduled_ckpt_event_ = 0;
  if (done_ || on_demand_phase_ || coord_.in_flight()) return;
  if (!policy_checkpoint_allowed()) return;
  start_checkpoint(std::nullopt);
}

bool Engine::policy_checkpoint_allowed() const {
  // A policy checkpoint started at or below the deadline margin would
  // postpone the on-demand switch by t_c without necessarily committing
  // anything new — repeated (e.g. Rising Edge fires every tick), that
  // accumulates an unbounded deadline deficit. Below the margin, only the
  // deadline trigger itself may checkpoint (it proves the gain exceeds
  // t_c first).
  return monitor_.switch_time(store_.latest_progress()) > now();
}

void Engine::start_checkpoint(std::optional<std::size_t> target) {
  REDSPOT_CHECK(!coord_.in_flight());
  if (!target) target = leading_zone();
  if (!target) return;  // nothing running; rescheduled at the next restart
  ZoneMachine& z = zone_at(*target);

  // Freeze the zone's progress for the duration of the write.
  z.begin_checkpoint(now());
  queue_.cancel(z.completion_event);

  coord_.begin(queue_, *target,
               iteration_aligned(experiment_.app, z.progress_base()),
               experiment_.costs.checkpoint);
}

bool Engine::commit_in_flight_checkpoint() {
  const std::size_t zone = coord_.zone();
  const Duration value = coord_.value();
  // Validate the finished write against the fault plan before publishing
  // it. Either failure mode leaves latest_progress() untouched, keeping
  // P_c monotone — the deadline margin's precondition — and re-arms the
  // deadline trigger, which may have been waiting on this write.
  const CheckpointCommit::Outcome outcome =
      coord_.commit(queue_, injector_, store_);
  switch (outcome) {
    case CheckpointCommit::Outcome::kWriteFailed:
      notify_fault(FaultEvent::Kind::kCkptWriteFailure, zone);
      break;
    case CheckpointCommit::Outcome::kCorrupt:
      notify_fault(FaultEvent::Kind::kCkptCorruption, zone);
      break;
    case CheckpointCommit::Outcome::kCommitted:
      ++result_.checkpoints_committed;
      break;
  }
  notify_commit(CheckpointCommit{now(), zone, value, outcome});
  reschedule_deadline_trigger();
  return outcome == CheckpointCommit::Outcome::kCommitted;
}

void Engine::settle_zone_checkpoint(std::size_t zone) {
  if (!coord_.in_flight() || coord_.zone() != zone) return;
  if (coord_.done_time() <= now()) {
    commit_in_flight_checkpoint();
  } else {
    // The write was cut off: nothing commits. Re-arm the deadline
    // trigger — it may have been waiting on this write.
    coord_.abort(queue_);
    reschedule_deadline_trigger();
  }
}

void Engine::on_checkpoint_done() {
  const std::size_t zone = coord_.zone();
  const bool committed = commit_in_flight_checkpoint();

  // The checkpointing zone resumes computing from its frozen progress.
  start_computing(zone, zone_at(zone).progress_base());

  // Algorithm 1 lines 19-25: waiting zones restart from this checkpoint.
  // A failed commit gives them nothing new to load — they keep waiting
  // for the next verified one (or for reconcile() on a full outage).
  if (!committed) return;
  for (std::size_t z : config_.zones) {
    if (zone_at(z).state() == ZoneState::kWaiting) request_instance(z);
  }
}

}  // namespace redspot
