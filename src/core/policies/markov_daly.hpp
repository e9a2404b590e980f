// Markov-Daly policy (Section 4.2, Appendix B).
//
// ScheduleNextCheckpoint():
//   1. expected up-time E[Tu] of each executing zone from a Markov chain
//      fitted to the trailing 2-day price history;
//   2. combined E[Tu] = sum over executing zones (independent zones);
//   3. next checkpoint after daly_interval(E[Tu], t_c) of compute.
//
// Stateless: step 1 is EngineView::expected_uptime, whose models the
// engine owns.
#pragma once

#include "core/policy.hpp"

namespace redspot {

class MarkovDalyPolicy final : public Policy {
 public:
  std::string name() const override { return "markov-daly"; }
  bool checkpoint_condition(const EngineView& view) override;
  SimTime schedule_next_checkpoint(const EngineView& view) override;

  /// Combined expected up-time at the view's bid over its executing zones
  /// (exposed for tests).
  static Duration combined_uptime(const EngineView& view);
};

}  // namespace redspot
