// Price-state Markov model (Appendix B).
//
// The Markov-Daly policy models a zone's spot price as a first-order Markov
// chain over the distinct prices observed in a trailing history window
// (the paper uses 2 days): PROB is a distribution over price states and
// TRANS the empirical transition matrix between consecutive 5-minute
// samples.
//
// Real quantized prices in a 2-day window produce a manageable state count,
// but a synthetic or long window could produce hundreds; the builder merges
// states into at most `max_states` quantile bins (each represented by the
// mean price of its members) so downstream solves stay O(max_states^3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/money.hpp"
#include "linalg/matrix.hpp"
#include "trace/price_series.hpp"

namespace redspot {

/// A fitted price-state chain.
struct MarkovModel {
  /// Representative price per state, ascending.
  std::vector<double> state_prices;
  /// Row-stochastic transition matrix: trans(i, j) = P(next = j | cur = i).
  Matrix trans;
  /// Sampling step of the fitted history (the chain's time unit).
  Duration step = kPriceStep;

  std::size_t num_states() const { return state_prices.size(); }

  /// State whose representative price is closest to `price` (binary search
  /// over the ascending prices; equidistant ties pick the lower state).
  std::size_t state_of(Money price) const;

  /// Largest state index whose price is <= bid, or SIZE_MAX when the bid is
  /// below every state (zone can never be up). Binary search.
  std::size_t max_alive_state(Money bid) const;
};

/// Default weight of the occupancy smoothing below; the decision path's
/// incremental model always fits with it.
inline constexpr double kDefaultSmoothing = 0.02;

/// Fits a model to `history`. A single-sample history (no observed
/// transitions) degenerates to one self-looping state — "the price never
/// moves", the only unbiased guess.
///
/// States with no observed outgoing transition get a self-loop (the price
/// was only seen at the window's end; persisting is the only unbiased
/// guess). Every row is then smoothed toward the empirical occupancy
/// distribution with weight `smoothing`: a short window observes few
/// transitions per exact price level, and the raw empirical matrix
/// routinely contains closed classes below a bid from which termination
/// looks impossible, sending the expected up-time to its cap. The smoothed
/// chain can always reach every observed state.
MarkovModel build_markov_model(const PriceView& history,
                               std::size_t max_states = 32,
                               double smoothing = kDefaultSmoothing);

inline MarkovModel build_markov_model(const PriceSeries& history,
                                      std::size_t max_states = 32,
                                      double smoothing = kDefaultSmoothing) {
  return build_markov_model(history.view(), max_states, smoothing);
}

namespace detail {

/// A window's distinct prices and their multiplicities, plus the fit's
/// reusable buffers. `levels`/`counts` are the one representation of the
/// window's price multiset: in unique mode the levels ARE the states and the
/// counts their occupancy; in quantile-binned mode the quantile edges are
/// order statistics read off the cumulative counts. The incremental model
/// edits them across slides; build_markov_model loads them with one sort.
/// A persistent scratch keeps repeated refits allocation-free once warm.
struct MarkovScratch {
  std::vector<std::int64_t> levels;  ///< distinct prices (micros), ascending
  std::vector<std::int64_t> counts;  ///< samples at each level
  /// Row-major n x n transition counts over the fitted states. Held as
  /// doubles — small integers, so every count and sum is exact — because
  /// the refit then normalizes them with no integer conversion.
  std::vector<double> trans_counts;
  std::vector<double> edges;              ///< binned: quantile bin edges
  std::vector<double> bin_sum;            ///< binned: chronological sums
  std::vector<std::int64_t> bin_count;    ///< binned: per-state occupancy
  std::vector<double> pi;                 ///< refit: smoothing * occupancy share
};

/// Loads `window`'s levels and counts (one sort of its samples).
void load_levels(MarkovScratch& scratch, const PriceView& window);

/// THE model fit: refits `model` in place, reusing its storage, from the
/// levels/counts of `scratch` (which must describe `window`) and the
/// window's chronological samples. Unique mode (levels <= max_states)
/// counts transitions between levels into scratch.trans_counts; binned
/// mode cuts the levels into quantile bins, each represented by the mean
/// of its samples summed in chronological order.
void fit_markov_model(MarkovScratch& scratch, const PriceView& window,
                      std::size_t max_states, double smoothing,
                      MarkovModel& model);

/// Unique mode: sets model.state_prices to the levels.
void set_level_prices(MarkovModel& model,
                      const std::vector<std::int64_t>& levels);

/// Turns transition counts + occupancy into the normalized, smoothed
/// transition matrix, rewriting `model.trans` in place (its storage is
/// reused whenever it is large enough) and leaving state_prices/step
/// untouched. Row r is normalized by its number of departures — its
/// occupancy, less one if the window's last sample (`last_state`) sits in
/// it — and then smoothed toward the occupancy distribution; a state never
/// observed leaving self-loops. Every entry is written, so the result does
/// not depend on what the storage held.
///
/// `trans_counts` is row-major n x n; `occupancy[s]` the number of window
/// samples in state s; `total_samples` their sum; `scratch` a reusable
/// buffer.
void refit_markov_model(MarkovModel& model,
                        const std::vector<double>& trans_counts,
                        const std::vector<std::int64_t>& occupancy,
                        std::size_t last_state, std::int64_t total_samples,
                        double smoothing, std::vector<double>& scratch);

}  // namespace detail

}  // namespace redspot
