#include "core/events/event.hpp"

namespace redspot {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kPriceTick:
      return "price-tick";
    case EventKind::kInstanceReady:
      return "instance-ready";
    case EventKind::kRestartDone:
      return "restart-done";
    case EventKind::kScheduledCheckpoint:
      return "scheduled-checkpoint";
    case EventKind::kCheckpointDone:
      return "checkpoint-done";
    case EventKind::kEmergencyCheckpoint:
      return "emergency-checkpoint";
    case EventKind::kCycleBoundary:
      return "cycle-boundary";
    case EventKind::kPreBoundary:
      return "pre-boundary";
    case EventKind::kRebalanceNotice:
      return "rebalance-notice";
    case EventKind::kDoom:
      return "doom";
    case EventKind::kDeadlineTrigger:
      return "deadline-trigger";
    case EventKind::kZoneCompletion:
      return "zone-completion";
    case EventKind::kOnDemandFinish:
      return "on-demand-finish";
  }
  return "?";
}

}  // namespace redspot
