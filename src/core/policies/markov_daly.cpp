#include "core/policies/markov_daly.hpp"

#include "ckpt/daly.hpp"

namespace redspot {

bool MarkovDalyPolicy::checkpoint_condition(const EngineView&) {
  return false;  // schedule-driven, like Periodic
}

Duration MarkovDalyPolicy::combined_uptime(const EngineView& view) {
  Duration total = 0;
  for (std::size_t zone : view.zone_ids())
    if (view.zone_running(zone)) total += view.expected_uptime(zone);
  return total;
}

SimTime MarkovDalyPolicy::schedule_next_checkpoint(const EngineView& view) {
  if (!view.any_zone_running()) return kNever;
  const Duration uptime = combined_uptime(view);
  if (uptime <= 0) return kNever;  // nothing expected to survive a step
  const Duration interval =
      daly_interval(view.experiment().costs.checkpoint, uptime);
  return view.now() + interval;
}

}  // namespace redspot
