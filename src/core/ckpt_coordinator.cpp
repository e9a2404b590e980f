#include "core/ckpt_coordinator.hpp"

#include "common/check.hpp"

namespace redspot {

std::size_t CheckpointCoordinator::zone() const {
  REDSPOT_CHECK(in_flight_);
  return zone_;
}

Duration CheckpointCoordinator::value() const {
  REDSPOT_CHECK(in_flight_);
  return value_;
}

SimTime CheckpointCoordinator::done_time() const {
  REDSPOT_CHECK(in_flight_);
  return done_time_;
}

void CheckpointCoordinator::begin(EventQueue& queue, std::size_t zone,
                                  Duration value, Duration write_cost) {
  REDSPOT_CHECK(!in_flight_);
  in_flight_ = true;
  zone_ = zone;
  value_ = value;
  done_time_ = queue.now() + write_cost;
  done_event_ =
      queue.schedule_at(EventKind::kCheckpointDone, zone, done_time_);
}

CheckpointCommit::Outcome CheckpointCoordinator::commit(
    EventQueue& queue, FaultInjector& injector, CheckpointStore& store) {
  REDSPOT_CHECK(in_flight_);
  REDSPOT_CHECK(done_time_ <= queue.now());
  queue.cancel(done_event_);
  in_flight_ = false;
  if (injector.checkpoint_write_fails(queue.now()))
    return CheckpointCommit::Outcome::kWriteFailed;
  if (injector.checkpoint_corrupts()) {
    // The write "succeeded" but post-write validation finds a corrupt
    // image: roll the commit back to the previous good checkpoint.
    store.commit(queue.now(), value_);
    store.invalidate_latest();
    return CheckpointCommit::Outcome::kCorrupt;
  }
  store.commit(queue.now(), value_);
  return CheckpointCommit::Outcome::kCommitted;
}

void CheckpointCoordinator::abort(EventQueue& queue) {
  if (!in_flight_) return;
  queue.cancel(done_event_);
  in_flight_ = false;
}

}  // namespace redspot
