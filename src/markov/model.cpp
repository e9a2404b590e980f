#include "markov/model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace redspot {

std::size_t MarkovModel::state_of(Money price) const {
  REDSPOT_CHECK(!state_prices.empty());
  const double p = price.to_double();
  // state_prices is ascending: the nearest state is one of the two
  // neighbours of the insertion point. Equidistant ties pick the lower
  // index (matching the historical first-minimum scan).
  const auto it = std::lower_bound(state_prices.begin(), state_prices.end(), p);
  if (it == state_prices.begin()) return 0;
  if (it == state_prices.end()) return state_prices.size() - 1;
  const std::size_t hi =
      static_cast<std::size_t>(std::distance(state_prices.begin(), it));
  const std::size_t lo = hi - 1;
  return (p - state_prices[lo] <= state_prices[hi] - p) ? lo : hi;
}

std::size_t MarkovModel::max_alive_state(Money bid) const {
  // Tolerate the micro-dollar -> double conversion.
  const double b = bid.to_double() + 1e-9;
  const auto it = std::upper_bound(state_prices.begin(), state_prices.end(), b);
  if (it == state_prices.begin()) return SIZE_MAX;
  return static_cast<std::size_t>(std::distance(state_prices.begin(), it)) - 1;
}

namespace detail {

namespace {

/// Number of edges <= v (std::upper_bound's index) over ascending `edges`,
/// with a fixed, data-independent sequence of halvings: the comparisons
/// compile to conditional moves, not unpredictable branches.
std::size_t bin_of(const double* edges, std::size_t num_edges, double v) {
  if (num_edges == 0) return 0;
  const double* base = edges;
  std::size_t len = num_edges;
  while (len > 1) {
    const std::size_t half = len / 2;
    base = base[half] <= v ? base + half : base;
    len -= half;
  }
  return static_cast<std::size_t>(base - edges) + (*base <= v ? 1 : 0);
}

/// Quantile-binned fit: edges are the window's order statistics at
/// q = (b+1)/max_states, found by walking the cumulative level counts;
/// each sample joins the bin of the edges <= it, and the bin means and
/// transition counts accumulate in one chronological pass. Returns the
/// state of the window's last sample.
std::size_t fit_binned(MarkovScratch& scratch, const PriceView& window,
                       std::size_t max_states, MarkovModel& model) {
  const std::vector<std::int64_t>& levels = scratch.levels;
  const std::vector<std::int64_t>& counts = scratch.counts;
  const std::size_t total = window.size();

  std::vector<double>& edges = scratch.edges;
  edges.clear();
  std::size_t level = 0;
  std::size_t below = static_cast<std::size_t>(counts[0]);  // samples <= level
  for (std::size_t b = 0; b + 1 < max_states; ++b) {
    const double q =
        static_cast<double>(b + 1) / static_cast<double>(max_states);
    const std::size_t rank =
        static_cast<std::size_t>(q * static_cast<double>(total - 1));
    while (below <= rank) below += static_cast<std::size_t>(counts[++level]);
    const double edge = Money::from_micros(levels[level]).to_double();
    if (edges.empty() || edges.back() != edge) edges.push_back(edge);
  }

  // Counts over the raw bins; an empty bin is dropped afterwards.
  const std::size_t num_bins = edges.size() + 1;
  std::vector<double>& bin_sum = scratch.bin_sum;
  std::vector<std::int64_t>& bin_count = scratch.bin_count;
  std::vector<double>& trans = scratch.trans_counts;
  bin_sum.assign(num_bins, 0.0);
  bin_count.assign(num_bins, 0);
  trans.assign(num_bins * num_bins, 0.0);
  // Prices are piecewise-constant: walk the window run by run. Each run
  // stays in one bin, so its samples add to that bin's sum one by one, in
  // chronological order, and move bin-to-itself.
  const Money* samples = window.data();
  std::size_t prev = SIZE_MAX;
  for (std::size_t i = 0; i < total;) {
    const std::int64_t micros = samples[i].micros();
    const double v = samples[i].to_double();
    const std::size_t bin = bin_of(edges.data(), edges.size(), v);
    double sum = bin_sum[bin];
    std::size_t j = i;
    do {
      sum += v;
      ++j;
    } while (j < total && samples[j].micros() == micros);
    bin_sum[bin] = sum;
    bin_count[bin] += static_cast<std::int64_t>(j - i);
    if (prev != SIZE_MAX) trans[prev * num_bins + bin] += 1.0;
    trans[bin * num_bins + bin] += static_cast<double>(j - i - 1);
    prev = bin;
    i = j;
  }

  // Every edge is a sample, so each bin above the first holds its lower
  // edge; only the first can be empty (when the lowest edge is the
  // window's minimum). Dropping it shifts the states down by one.
  model.state_prices.clear();
  for (std::size_t b = 0; b < num_bins; ++b) {
    if (bin_count[b] == 0) continue;
    model.state_prices.push_back(bin_sum[b] /
                                 static_cast<double>(bin_count[b]));
  }
  const std::size_t n = model.state_prices.size();
  if (n == num_bins) return prev;
  REDSPOT_CHECK(n + 1 == num_bins && bin_count[0] == 0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      trans[r * n + c] = trans[(r + 1) * num_bins + c + 1];
  trans.resize(n * n);
  bin_count.erase(bin_count.begin());
  return prev - 1;
}

/// Unique mode: transition counts between the levels, over the window's
/// consecutive samples, run by run. Returns the last sample's state.
std::size_t count_level_transitions(MarkovScratch& scratch,
                                    const PriceView& window) {
  const std::vector<std::int64_t>& levels = scratch.levels;
  const std::size_t n = levels.size();
  std::vector<double>& trans = scratch.trans_counts;
  trans.assign(n * n, 0.0);
  const Money* samples = window.data();
  std::size_t prev = SIZE_MAX;
  for (std::size_t i = 0; i < window.size();) {
    const std::int64_t micros = samples[i].micros();
    const std::size_t state = static_cast<std::size_t>(
        std::lower_bound(levels.begin(), levels.end(), micros) -
        levels.begin());
    std::size_t j = i + 1;
    while (j < window.size() && samples[j].micros() == micros) ++j;
    if (prev != SIZE_MAX) trans[prev * n + state] += 1.0;
    trans[state * n + state] += static_cast<double>(j - i - 1);
    prev = state;
    i = j;
  }
  return prev;
}

/// One row of the finished matrix: normalize, then smooth,
/// out[c] = keep * (counts[c] * inv) + smoothed[c], with each product and
/// the sum rounded separately — the arithmetic every pinned E[Tu] rests on.
void finish_row(double* __restrict out, const double* __restrict counts,
                const double* __restrict smoothed, double inv, double keep,
                std::size_t n) {
  for (std::size_t c = 0; c < n; ++c)
    out[c] = keep * (counts[c] * inv) + smoothed[c];
}

}  // namespace

void load_levels(MarkovScratch& scratch, const PriceView& window) {
  std::vector<std::int64_t>& levels = scratch.levels;
  std::vector<std::int64_t>& counts = scratch.counts;
  levels.resize(window.size());
  // Room for as many levels as samples, so the incremental model's slides
  // rarely grow these arrays.
  counts.reserve(window.size());
  const Money* samples = window.data();
  for (std::size_t i = 0; i < window.size(); ++i)
    levels[i] = samples[i].micros();
  std::sort(levels.begin(), levels.end());
  // Run-length the sorted samples in place into (level, multiplicity).
  counts.clear();
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i > 0 && levels[i] == levels[distinct - 1]) {
      ++counts.back();
    } else {
      levels[distinct++] = levels[i];
      counts.push_back(1);
    }
  }
  levels.resize(distinct);
}

void set_level_prices(MarkovModel& model,
                      const std::vector<std::int64_t>& levels) {
  model.state_prices.resize(levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i)
    model.state_prices[i] = Money::from_micros(levels[i]).to_double();
}

void fit_markov_model(MarkovScratch& scratch, const PriceView& window,
                      std::size_t max_states, double smoothing,
                      MarkovModel& model) {
  REDSPOT_CHECK(!window.empty());
  REDSPOT_CHECK(max_states >= 2);
  REDSPOT_CHECK(smoothing >= 0.0 && smoothing < 1.0);
  model.step = window.step();
  const auto total = static_cast<std::int64_t>(window.size());
  if (scratch.levels.size() <= max_states) {
    const std::size_t last = count_level_transitions(scratch, window);
    set_level_prices(model, scratch.levels);
    refit_markov_model(model, scratch.trans_counts, scratch.counts, last,
                       total, smoothing, scratch.pi);
  } else {
    const std::size_t last = fit_binned(scratch, window, max_states, model);
    refit_markov_model(model, scratch.trans_counts, scratch.bin_count, last,
                       total, smoothing, scratch.pi);
  }
}

void refit_markov_model(MarkovModel& model,
                        const std::vector<double>& trans_counts,
                        const std::vector<std::int64_t>& occupancy,
                        std::size_t last_state, std::int64_t total_samples,
                        double smoothing, std::vector<double>& scratch) {
  const std::size_t n = model.state_prices.size();
  REDSPOT_CHECK(trans_counts.size() == n * n);
  REDSPOT_CHECK(occupancy.size() == n);
  REDSPOT_CHECK(last_state < n);
  REDSPOT_CHECK(total_samples > 0);

  if (model.trans.rows() != n || model.trans.cols() != n)
    model.trans.resize(n, n);
  double* trans = model.trans.data();  // checked accessor is too hot here

  // smoothed[c] = smoothing * pi[c], pi the empirical occupancy
  // distribution; zero when unsmoothed (a no-op term: keep is then 1.0,
  // and x * 1.0 + 0.0 == x for the non-negative x here).
  scratch.resize(n);
  double* smoothed = scratch.data();
  for (std::size_t c = 0; c < n; ++c)
    smoothed[c] = smoothing * (static_cast<double>(occupancy[c]) /
                               static_cast<double>(total_samples));
  const double keep = 1.0 - smoothing;
  for (std::size_t r = 0; r < n; ++r) {
    // Every sample but the last leaves its state once, so row r's total
    // is its occupancy less the last sample.
    const std::int64_t leaving = occupancy[r] - (r == last_state ? 1 : 0);
    double* row = trans + r * n;
    if (leaving == 0) {
      // Never observed leaving: self-loop.
      for (std::size_t c = 0; c < n; ++c)
        row[c] = keep * (c == r ? 1.0 : 0.0) + smoothed[c];
      continue;
    }
    finish_row(row, trans_counts.data() + r * n, smoothed,
               1.0 / static_cast<double>(leaving), keep, n);
  }
}

}  // namespace detail

MarkovModel build_markov_model(const PriceView& history,
                               std::size_t max_states, double smoothing) {
  REDSPOT_CHECK(history.size() >= 1);
  detail::MarkovScratch scratch;
  detail::load_levels(scratch, history);
  MarkovModel model;
  detail::fit_markov_model(scratch, history, max_states, smoothing, model);
  return model;
}

}  // namespace redspot
