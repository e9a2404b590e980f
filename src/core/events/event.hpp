// Typed engine events.
//
// Every event the engine schedules — price ticks, instance arrivals,
// checkpoint completions, billing-cycle boundaries, the deadline trigger —
// is tagged with an EventKind and the zone it concerns (kNoZone for global
// events). The tags are the whole entry: the engine routes each dispatched
// event to its handler by kind, and observers see the same tags. Dispatch
// order is still strictly (time, scheduling sequence) FIFO, never
// kind-based, because the engine's determinism contract is "whoever
// scheduled first at an instant fires first" (see event_queue.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.hpp"

namespace redspot {

/// Handle for cancelling a scheduled event. 0 is never a valid id.
using EventId = std::uint64_t;

/// Zone tag for events that are not zone-scoped.
inline constexpr std::size_t kNoZone = static_cast<std::size_t>(-1);

/// Every event class the engine schedules.
enum class EventKind : std::uint8_t {
  kPriceTick,            ///< 5-minute spot-price sample (global)
  kInstanceReady,        ///< spot request fulfilled after the queue delay
  kRestartDone,          ///< checkpoint load finished (t_r elapsed)
  kScheduledCheckpoint,  ///< policy-scheduled checkpoint instant (global)
  kCheckpointDone,       ///< in-flight checkpoint write finished (t_c)
  kEmergencyCheckpoint,  ///< notice-driven write timed to end at the kill
  kCycleBoundary,        ///< billing hour ends for one zone
  kPreBoundary,          ///< t_c before a cycle boundary (stop/reconfigure)
  kRebalanceNotice,      ///< termination notice (regime notice lead time)
  kDoom,                 ///< announced out-of-bid kill instant
  kDeadlineTrigger,      ///< committed-progress margin exhausted (global)
  kZoneCompletion,       ///< a zone's remaining compute reaches zero
  kOnDemandFinish,       ///< on-demand phase completes the application
};

const char* to_string(EventKind kind);

/// One dispatched event, as the sink (EventSink::on_queue_event) and
/// observers (EngineObserver::on_event) see it.
struct Event {
  SimTime time = 0;
  EventKind kind = EventKind::kPriceTick;
  std::size_t zone = kNoZone;  ///< global zone id; kNoZone when global
  std::uint64_t seq = 0;       ///< scheduling sequence (the FIFO tie-break)
};

}  // namespace redspot
