// Remaining-cost estimator for Adaptive (Section 7.1).
//
// For each permutation of (bid B, zone subset Z, policy), predict from the
// trailing history:
//   * progress rate r — compute seconds gained per wall second on the spot
//     market: combined availability x checkpoint efficiency, minus rollback
//     losses from full outages;
//   * cost rate c — dollars per wall hour: sum over zones of availability x
//     expected paid price (hour-start pricing averages to this);
// then apply Inequality (1): if the configuration cannot finish C_r within
// T_r at rate r, part of the remaining run moves to on-demand. The
// prediction is c x (spot time) + on-demand rate x (started on-demand
// hours), and Adaptive adopts the cheapest permutation (best_permutation).
//
// A prediction is two steps. The cell terms of a (subset, bid) — combined
// availability, full-outage rate, the per-zone sums of availability x paid
// price, of the first-hour rate and of mean up-spells — do not depend on
// the policy; pricing applies one policy's checkpoint interval to them.
// best_permutation builds each cell once and prices every policy from it
// (every policy but Markov-Daly shares the hourly interval, computed once
// per scan; Daly's is computed once per cell). estimate_permutation runs
// the same two functions, so both entry points give bit-identical numbers.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/money.hpp"
#include "common/time.hpp"
#include "core/adaptive/history_stats.hpp"
#include "core/policy.hpp"

namespace redspot {

/// One evaluated permutation.
struct PermutationEstimate {
  Money bid;
  std::vector<std::size_t> zones;
  PolicyKind policy = PolicyKind::kPeriodic;

  double progress_rate = 0.0;    ///< r, in [0, 1]
  double cost_rate = 0.0;        ///< c, dollars per wall-hour on spot
  Duration spot_seconds = 0;     ///< predicted time on spot
  Duration on_demand_seconds = 0;
  Money predicted_cost;          ///< total predicted remaining cost

  std::string str() const;
};

/// Inputs that do not come from the history window.
struct EstimatorInputs {
  Duration remaining_compute = 0;  ///< C_r = C - P
  Duration remaining_time = 0;     ///< T_r = deadline - now
  Duration checkpoint_cost = 300;  ///< t_c
  Duration restart_cost = 300;     ///< t_r
  Duration mean_queue_delay = 300; ///< recovery penalty per outage
  Money on_demand_rate = Money::dollars(2.40);
  /// Spot price of each zone right now, dollars. When non-empty, the first
  /// predicted hour of each selected zone is priced at its current price
  /// (hour-start pricing locks it) instead of the historical mean — this is
  /// what lets Adaptive walk away from a zone that just entered an
  /// expensive regime. A non-empty vector must price every zone of the
  /// history (both entry points check it).
  std::vector<double> current_prices;
};

/// Evaluates one permutation against the history snapshot. `zones`
/// becomes the estimate's zone list.
PermutationEstimate estimate_permutation(const HistoryStats& hist,
                                         std::size_t bid_idx,
                                         std::vector<std::size_t> zones,
                                         PolicyKind policy,
                                         const EstimatorInputs& in);

/// The cheapest permutation of (bid grid) x (non-empty subsets of the
/// first max_zones zones) x (policies), found by one argmin scan. The order
/// is total: predicted cost ascending, then fewer zones, lower bid, the
/// lexicographically smaller zone set, and the lower PolicyKind — so the
/// winner does not depend on the scan order or the order of `policies`.
/// Once the history's subset memo is warm, the only allocation is the
/// winner's zone list.
PermutationEstimate best_permutation(const HistoryStats& hist,
                                     std::size_t max_zones,
                                     std::span<const PolicyKind> policies,
                                     const EstimatorInputs& in);

}  // namespace redspot
