#include "core/policies/threshold.hpp"

#include <algorithm>

#include "core/policies/rising_edge.hpp"

namespace redspot {

bool ThresholdPolicy::checkpoint_condition(const EngineView& view) {
  for (std::size_t zone : view.zone_ids()) {
    if (!view.zone_running(zone) || !rising_edge(view, zone)) continue;
    // PriceThresh = average of the minimum observed price and the bid.
    const Money price_thresh = Money::from_micros(
        (view.min_observed_price(zone).micros() + view.bid().micros()) / 2);
    if (view.price(zone) >= price_thresh) return true;
  }
  return false;
}

SimTime ThresholdPolicy::schedule_next_checkpoint(const EngineView& view) {
  const SimTime since = view.leading_compute_since();
  if (since == kNever) return kNever;
  // TimeThresh: probabilistic average up-time of the leading zone at B.
  Duration best_uptime = 0;
  for (std::size_t zone : view.zone_ids()) {
    if (view.zone_running(zone))
      best_uptime = std::max(best_uptime, view.expected_uptime(zone));
  }
  if (best_uptime <= 0) return kNever;
  // "execution time at B" exceeds TimeThresh at since + TimeThresh.
  return std::max(view.now() + 1, since + best_uptime);
}

}  // namespace redspot
