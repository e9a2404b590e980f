// Threshold policy (Section 4.4, after Jung et al.): tames Rising Edge's
// checkpoint churn with two thresholds.
//
//   1. Price threshold: checkpoint on a rising edge only when the price has
//      already climbed past PriceThresh = (S_min + B) / 2 — edges far below
//      the bid are harmless.
//   2. Time threshold: checkpoint once the zone has executed at bid B for
//      longer than TimeThresh, the zone's probabilistic average up-time
//      (estimated with the same Markov machinery as Markov-Daly), since an
//      interruption is then "due".
//
// Condition 1 is event-driven (checkpoint_condition); condition 2 is a
// scheduled deadline measured from the last restart/checkpoint
// (schedule_next_checkpoint), which evaluates it exactly rather than at
// 5-minute polls.
//
// Stateless: E[Tu] comes from EngineView::expected_uptime, whose models
// the engine owns.
#pragma once

#include "core/policy.hpp"

namespace redspot {

class ThresholdPolicy final : public Policy {
 public:
  std::string name() const override { return "threshold"; }
  bool checkpoint_condition(const EngineView& view) override;
  SimTime schedule_next_checkpoint(const EngineView& view) override;
};

}  // namespace redspot
