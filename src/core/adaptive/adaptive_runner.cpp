#include "core/adaptive/adaptive_runner.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace redspot {

std::vector<Money> paper_bid_grid() {
  std::vector<Money> grid;
  for (Money b = Money::cents(27); b <= Money::dollars(3.07);
       b += Money::cents(20)) {
    grid.push_back(b);
  }
  return grid;
}

AdaptiveStrategy::AdaptiveStrategy()
    : periodic_(make_policy(PolicyKind::kPeriodic)),
      markov_daly_(make_policy(PolicyKind::kMarkovDaly)) {}

void AdaptiveStrategy::fill_inputs(const EngineView& view) {
  const Experiment& exp = view.experiment();
  inputs_.remaining_compute = exp.app.total_compute - view.leading_progress();
  inputs_.remaining_time = exp.deadline_time() - view.now();
  inputs_.checkpoint_cost = exp.costs.checkpoint;
  inputs_.restart_cost = exp.costs.restart;
  inputs_.mean_queue_delay = kMeanQueueDelay;
  inputs_.on_demand_rate = view.market().on_demand_rate();
  inputs_.current_prices.resize(view.market().num_zones());
  for (std::size_t z = 0; z < inputs_.current_prices.size(); ++z)
    inputs_.current_prices[z] = view.price(z).to_double();
}

const HistoryStats& AdaptiveStrategy::current_stats(const EngineView& view) {
  const Experiment& exp = view.experiment();
  const SimTime from = view.now() - exp.history_span;
  if (!hist_) {
    hist_.emplace(view.market().traces(), from, view.now(),
                  paper_bid_grid());
  } else {
    hist_->advance(view.market().traces(), from, view.now());
  }
  return *hist_;
}

PermutationEstimate AdaptiveStrategy::choose(const EngineView& view) {
  const HistoryStats& hist = current_stats(view);
  fill_inputs(view);
  return best_permutation(hist, kMaxZones, kCandidatePolicies, inputs_);
}

EngineConfig AdaptiveStrategy::to_config(
    const PermutationEstimate& e) const {
  Policy* policy = e.policy == PolicyKind::kPeriodic ? periodic_.get()
                                                     : markov_daly_.get();
  return EngineConfig{e.bid, e.zones, policy};
}

EngineConfig AdaptiveStrategy::initial(const EngineView& view) {
  choice_ = choose(view);
  return to_config(*choice_);
}

std::optional<EngineConfig> AdaptiveStrategy::reconsider(
    const EngineView& view, DecisionPoint point) {
  (void)point;
  PermutationEstimate best = choose(view);
  REDSPOT_CHECK(choice_.has_value());
  const bool same_permutation = best.bid == choice_->bid &&
                                best.zones == choice_->zones &&
                                best.policy == choice_->policy;
  if (same_permutation) {
    choice_ = std::move(best);  // refresh the prediction
    return std::nullopt;
  }
  // Hysteresis: re-estimate the incumbent against the same window and
  // inputs — what choose() just slid and filled for now() — and only move
  // when the challenger is clearly cheaper.
  const HistoryStats& hist = *hist_;
  const EstimatorInputs& in = inputs_;

  const std::vector<Money>& grid = hist.bid_grid();
  std::size_t incumbent_bid_idx = grid.size();
  for (std::size_t b = 0; b < grid.size(); ++b) {
    if (grid[b] == choice_->bid) {
      incumbent_bid_idx = b;
      break;
    }
  }
  REDSPOT_CHECK(incumbent_bid_idx < grid.size());
  // The incumbent's zone list moves into its re-estimate (and back into
  // choice_ if it is kept), so the hysteresis allocates nothing.
  PermutationEstimate incumbent =
      estimate_permutation(hist, incumbent_bid_idx, std::move(choice_->zones),
                           choice_->policy, in);

  // A disruptive switch (bid change) really costs: a protective
  // checkpoint, instance termination, re-acquisition and restart. The
  // challenger's prediction is charged that time at the on-demand rate so
  // near-ties never trigger churn.
  const Experiment& exp = view.experiment();
  const Duration lost =
      exp.costs.checkpoint + exp.costs.restart + kMeanQueueDelay;
  const double challenger_cost =
      best.predicted_cost.to_double() + in.on_demand_rate.to_double() *
                                            static_cast<double>(lost) /
                                            static_cast<double>(kHour);
  const double threshold =
      incumbent.predicted_cost.to_double() * kSwitchRatio;
  if (challenger_cost >= threshold) {
    choice_ = std::move(incumbent);  // not clearly better: keep it
    return std::nullopt;
  }
  choice_ = std::move(best);
  return to_config(*choice_);
}

}  // namespace redspot
