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

/// Reusable buffers for model fitting. A persistent scratch makes repeated
/// (re)builds allocation-free once warm — the incremental sliding-window
/// model refits every few samples and must not churn the heap.
struct MarkovScratch {
  std::vector<double> values;  ///< window samples, chronological
  std::vector<double> sorted;  ///< the same samples, ascending
  std::vector<double> unique;
  std::vector<double> edges;
  std::vector<double> bin_sum;
  std::vector<double> state_prices;
  std::vector<std::size_t> state_of_sample;
  std::vector<std::size_t> bin_count;
  std::vector<std::size_t> remap;
  std::vector<std::int64_t> trans_counts;
  std::vector<std::int64_t> occupancy;
};

/// Fits a model from `scratch.values` (chronological) given
/// `scratch.sorted` (the identical multiset, ascending). This is THE model
/// fit: build_markov_model sorts and delegates here, and the incremental
/// path maintains the sorted multiset across slides and delegates here,
/// so both produce bit-identical models by construction.
MarkovModel build_markov_model_presorted(MarkovScratch& scratch,
                                         Duration step,
                                         std::size_t max_states,
                                         double smoothing);

/// Turns integer transition counts + occupancy into the normalized,
/// smoothed MarkovModel. Shared by the from-scratch builder and the
/// incremental sliding-window builder so both produce bit-identical
/// matrices: a count accumulated as `+= 1.0` k times equals (double)k
/// exactly, so normalizing (double)count by 1/row_total reproduces the
/// historical arithmetic operation-for-operation.
///
/// `trans_counts` is row-major n x n; `occupancy[s]` the number of window
/// samples in state s; `total_samples` their sum.
MarkovModel finish_markov_model(std::vector<double> state_prices,
                                const std::vector<std::int64_t>& trans_counts,
                                const std::vector<std::int64_t>& occupancy,
                                std::int64_t total_samples, Duration step,
                                double smoothing);

/// In-place variant for the steady-state slide: rewrites `model.trans`
/// from the counts, reusing its storage when the shape already matches and
/// `pi_scratch` for the smoothing distribution, leaving state_prices/step
/// untouched. Writes the exact doubles finish_markov_model would — every
/// matrix entry is overwritten (self-loop rows are zero-filled explicitly,
/// matching the fresh zero-initialized Matrix) — so the two paths stay
/// bit-identical while this one never touches the heap.
void refit_markov_model(MarkovModel& model,
                        const std::vector<std::int64_t>& trans_counts,
                        const std::vector<std::int64_t>& occupancy,
                        std::int64_t total_samples, double smoothing,
                        std::vector<double>& pi_scratch);

}  // namespace detail

}  // namespace redspot
