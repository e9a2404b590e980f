// The run-wide in-flight checkpoint (at most one at a time).
//
// A checkpoint write occupies [begin, begin + write_cost); the coordinator
// owns its calendar event and the commit/abort settlement:
//
//   * commit() — the write finished; validate it against the fault plan
//     and publish to the store on success. Returns the outcome so the
//     engine can record and notify. Call when done_time() <= now (the
//     write had time to finish, even if its done-event has not fired yet —
//     a terminating zone commits a just-finished write this way).
//   * abort() — the write was cut off mid-flight; nothing publishes.
//
// The injector draw order inside commit() — write-failure then corruption
// — is part of the engine's RNG-stream contract; do not reorder.
#pragma once

#include <cstddef>

#include "ckpt/store.hpp"
#include "common/time.hpp"
#include "core/events/event_queue.hpp"
#include "core/events/observer.hpp"
#include "fault/fault_injector.hpp"

namespace redspot {

class CheckpointCoordinator {
 public:
  bool in_flight() const { return in_flight_; }

  /// Zone whose progress is being written. Requires in_flight().
  std::size_t zone() const;

  /// Progress value the write captures. Requires in_flight().
  Duration value() const;

  /// When the write finishes. Requires in_flight().
  SimTime done_time() const;

  /// Starts a write of `value` for `zone`, scheduling its kCheckpointDone
  /// event after `write_cost`. Requires !in_flight().
  void begin(EventQueue& queue, std::size_t zone, Duration value,
             Duration write_cost);

  /// Settles a finished write: draws validation faults and commits to
  /// `store` on success (a corrupt write commits then rolls back, keeping
  /// the store's audit log complete). Clears the in-flight state.
  CheckpointCommit::Outcome commit(EventQueue& queue, FaultInjector& injector,
                                   CheckpointStore& store);

  /// Drops a cut-off write without publishing; no-op when idle.
  void abort(EventQueue& queue);

 private:
  bool in_flight_ = false;
  std::size_t zone_ = 0;
  Duration value_ = 0;
  SimTime done_time_ = 0;
  EventId done_event_ = 0;
};

}  // namespace redspot
