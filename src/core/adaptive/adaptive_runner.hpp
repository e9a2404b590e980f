// The Adaptive policy (Section 7).
//
// Adaptive owns one instance of each candidate fixed policy and, at every
// engine decision point, re-evaluates all permutations of
//   bid B in {$0.27 .. $3.07 step $0.20} x N in {1, 2, 3} x
//   policy in {Periodic, Markov-Daly}
// against the trailing price history (bootstrapped from the pre-experiment
// history at start). It adopts the permutation with the least predicted
// remaining cost, with a small hysteresis so that marginal differences do
// not trigger disruptive reconfigurations; the engine enforces the paper's
// adoption rules (terminated zone / hour boundary / non-disruptive).
//
// Edge and Threshold are excluded as candidates (end of Section 6), as is
// Large-bid, which has no cost bound (Section 7.2.2).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "core/adaptive/estimator.hpp"
#include "core/policy.hpp"
#include "core/strategy.hpp"

namespace redspot {

/// The paper's bid grid: $0.27 to $3.07 in steps of $0.20 (Section 5).
std::vector<Money> paper_bid_grid();

class AdaptiveStrategy final : public Strategy {
 public:
  /// The fixed policies Adaptive chooses between (see file comment).
  static constexpr std::array<PolicyKind, 2> kCandidatePolicies = {
      PolicyKind::kPeriodic, PolicyKind::kMarkovDaly};
  /// Largest zone set a permutation may use.
  static constexpr std::size_t kMaxZones = 3;
  /// Adopt a different permutation only when its predicted cost is below
  /// this fraction of the incumbent's prediction (hysteresis).
  static constexpr double kSwitchRatio = 0.93;
  /// Expected wait to re-acquire an instance after an outage.
  static constexpr Duration kMeanQueueDelay = 300;

  AdaptiveStrategy();

  EngineConfig initial(const EngineView& view) override;
  std::optional<EngineConfig> reconsider(const EngineView& view,
                                         DecisionPoint point) override;
  bool dynamic() const override { return true; }

  /// The estimate backing the last decision (for tests/diagnostics).
  const std::optional<PermutationEstimate>& last_choice() const {
    return choice_;
  }

 private:
  /// Slides the stats and refills inputs_ for view.now(), then scans.
  PermutationEstimate choose(const EngineView& view);
  /// Refills inputs_ in place: no allocation once current_prices is sized.
  void fill_inputs(const EngineView& view);
  /// The trailing-window stats, slid (or rebuilt) to end at view.now().
  const HistoryStats& current_stats(const EngineView& view);
  EngineConfig to_config(const PermutationEstimate& e) const;

  std::unique_ptr<Policy> periodic_;
  std::unique_ptr<Policy> markov_daly_;
  std::optional<PermutationEstimate> choice_;
  /// Persistent window stats, slid incrementally between decision points.
  /// Borrows the market's traces — valid because the market outlives the
  /// run, and advance() detects (and rebuilds on) a different market.
  std::optional<HistoryStats> hist_;
  /// The current decision's estimator inputs, filled once by choose() and
  /// reused by reconsider()'s hysteresis estimate.
  EstimatorInputs inputs_;
};

}  // namespace redspot
