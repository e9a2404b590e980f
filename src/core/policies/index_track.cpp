#include "core/policies/index_track.hpp"

namespace redspot {

bool IndexTrackPolicy::in_index(const EngineView& view,
                                std::size_t zone) const {
  const Money mine = view.price(zone);
  std::size_t cheaper = 0;
  for (std::size_t other : view.zone_ids()) {
    if (other == zone) continue;
    const Money theirs = view.price(other);
    if (theirs < mine || (theirs == mine && other < zone)) ++cheaper;
  }
  return cheaper < target_active_;
}

bool IndexTrackPolicy::should_manual_stop(const EngineView& view,
                                          std::size_t zone) {
  return !in_index(view, zone);
}

bool IndexTrackPolicy::should_resume(const EngineView& view,
                                     std::size_t zone) {
  return in_index(view, zone);
}

SimTime IndexTrackPolicy::schedule_next_checkpoint(const EngineView& view) {
  // Hour-boundary commits, like Periodic: progress must be locked in
  // before a rebalance can retire the leading lane at its boundary.
  SimTime boundary = kNever;
  Duration best_progress = -1;
  for (std::size_t zone : view.zone_ids()) {
    if (!view.zone_running(zone)) continue;
    const Duration p = view.zone_progress(zone);
    if (p > best_progress) {
      best_progress = p;
      boundary = view.billing_cycle_end(zone);
    }
  }
  if (boundary == kNever) return kNever;
  SimTime t = boundary - view.experiment().costs.checkpoint;
  while (t <= view.now()) t += kHour;
  return t;
}

}  // namespace redspot
