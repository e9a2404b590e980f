#include "markov/incremental.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace redspot {

IncrementalMarkovModel::IncrementalMarkovModel(std::size_t max_states)
    : max_states_(max_states) {
  REDSPOT_CHECK(max_states_ >= 2);
}

const MarkovModel& IncrementalMarkovModel::model() const {
  REDSPOT_CHECK_MSG(valid_, "observe() a window first");
  return model_;
}

std::size_t IncrementalMarkovModel::state_index(Money price) const {
  const auto it = std::lower_bound(state_micros_.begin(), state_micros_.end(),
                                   price.micros());
  if (it == state_micros_.end() || *it != price.micros()) return SIZE_MAX;
  return static_cast<std::size_t>(std::distance(state_micros_.begin(), it));
}

void IncrementalMarkovModel::remember_window(const PriceView& window) {
  data_ = window.data();
  size_ = window.size();
  start_ = window.start();
  step_ = window.step();
  valid_ = true;
}

const MarkovModel& IncrementalMarkovModel::observe(const PriceView& window) {
  REDSPOT_CHECK(!window.empty());
  // Identical window: nothing to do (common when a policy asks for the
  // history twice within one engine step).
  if (valid_ && window.data() == data_ && window.size() == size_ &&
      window.start() == start_ && window.step() == step_) {
    return model_;
  }
  if (valid_ && try_slide(window)) {
    ++incremental_slides_;
    return model_;
  }
  rebuild_full(window);
  return model_;
}

bool IncrementalMarkovModel::try_slide(const PriceView& window) {
  // Forward slide over the same storage, with at least one overlapping
  // sample — anything else rebuilds.
  if (window.step() != step_) return false;
  if (window.start() < start_) return false;
  const std::size_t shift =
      static_cast<std::size_t>((window.start() - start_) / step_);
  if (shift >= size_) return false;  // no overlap
  if (shift + window.size() < size_) return false;  // right edge moved back
  // data_ + shift is within the old span, so this equality is well-defined;
  // it holds exactly when both windows view the same underlying array.
  if (window.data() != data_ + shift) return false;

  return binned_ ? slide_binned(window, shift) : slide_unique(window, shift);
}

bool IncrementalMarkovModel::slide_binned(const PriceView& window,
                                          std::size_t shift) {
  // Evict the samples that left the window: decrement each departing
  // price's level count, dropping the level when it reaches zero (exact
  // double equality — both sides come from the same Money::to_double of
  // the same stored micros). A count edit is O(log distinct); only a
  // level birth/death pays an O(distinct) array shift, versus the
  // O(window) memmove every sample cost under the old sorted-multiset
  // maintenance.
  for (std::size_t i = 0; i < shift; ++i) {
    const double v = data_[i].to_double();
    const auto it = std::lower_bound(bin_levels_.begin(), bin_levels_.end(), v);
    REDSPOT_CHECK(it != bin_levels_.end() && *it == v);
    const std::size_t pos =
        static_cast<std::size_t>(std::distance(bin_levels_.begin(), it));
    if (--bin_counts_[pos] == 0) {
      bin_levels_.erase(it);
      bin_counts_.erase(bin_counts_.begin() +
                        static_cast<std::ptrdiff_t>(pos));
      --distinct_;
    }
  }
  // Count in the appended samples, inserting unseen levels in place.
  const std::size_t new_abs_end = shift + window.size();
  for (std::size_t i = size_; i < new_abs_end; ++i) {
    const double v = window.sample(i - shift).to_double();
    const auto it = std::lower_bound(bin_levels_.begin(), bin_levels_.end(), v);
    const std::size_t pos =
        static_cast<std::size_t>(std::distance(bin_levels_.begin(), it));
    if (it == bin_levels_.end() || *it != v) {
      bin_levels_.insert(it, v);
      bin_counts_.insert(bin_counts_.begin() + static_cast<std::ptrdiff_t>(pos),
                         1);
      ++distinct_;
    } else {
      ++bin_counts_[pos];
    }
  }
  // The window left quantile territory: let the full rebuild re-derive
  // everything in unique mode (it recounts, so the edits above are moot).
  if (distinct_ <= max_states_) return false;

  // Expand the counts back into the sorted buffer the shared mapping pass
  // consumes: ascending levels repeated by multiplicity ARE the sorted
  // window, so the refit sees the same input as a from-scratch sort —
  // same chronological values, same sorted multiset, bit-identical model.
  fit_.sorted.resize(window.size());
  double* out = fit_.sorted.data();
  for (std::size_t b = 0; b < bin_levels_.size(); ++b)
    out = std::fill_n(out, bin_counts_[b], bin_levels_[b]);
  REDSPOT_CHECK(out == fit_.sorted.data() + fit_.sorted.size());
  fit_.values.resize(window.size());
  for (std::size_t i = 0; i < window.size(); ++i)
    fit_.values[i] = window.sample(i).to_double();
  model_ = detail::build_markov_model_presorted(fit_, step_, max_states_,
                                                kDefaultSmoothing);
  ++model_refreshes_;
  ++epoch_;
  remember_window(window);
  return true;
}

bool IncrementalMarkovModel::slide_unique(const PriceView& window,
                                          std::size_t shift) {
  const std::size_t new_abs_end = shift + window.size();  // old-local index

  // An appended sample with an unseen price changes the state set.
  for (std::size_t i = size_; i < new_abs_end; ++i) {
    if (state_index(window.sample(i - shift)) == SIZE_MAX) return false;
  }

  // Occupancy after the slide; a state dropping to zero changes the set.
  const std::size_t n = state_micros_.size();
  occ_scratch_.assign(occupancy_.begin(), occupancy_.end());
  for (std::size_t i = 0; i < shift; ++i) {
    const std::size_t s = state_index(data_[i]);
    REDSPOT_CHECK(s != SIZE_MAX);
    --occ_scratch_[s];
  }
  for (std::size_t i = size_; i < new_abs_end; ++i) {
    ++occ_scratch_[state_index(window.sample(i - shift))];
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (occ_scratch_[s] <= 0) return false;
  }

  // Commit. Samples at old-local index i: < shift only exist in the old
  // span, >= shift are window.sample(i - shift).
  const auto at = [&](std::size_t i) {
    return i >= shift ? window.sample(i - shift) : data_[i];
  };
  removed_pairs_.clear();
  added_pairs_.clear();
  for (std::size_t i = 0; i < shift; ++i) {  // evicted transitions
    const std::uint32_t key = static_cast<std::uint32_t>(
        state_index(at(i)) * n + state_index(at(i + 1)));
    --trans_counts_[key];
    removed_pairs_.push_back(key);
  }
  for (std::size_t i = size_ - 1; i + 1 < new_abs_end; ++i) {
    const std::uint32_t key = static_cast<std::uint32_t>(
        state_index(at(i)) * n + state_index(at(i + 1)));
    ++trans_counts_[key];
    added_pairs_.push_back(key);
  }

  const bool occupancy_unchanged =
      window.size() == size_ && occ_scratch_ == occupancy_;
  occupancy_.swap(occ_scratch_);
  std::sort(removed_pairs_.begin(), removed_pairs_.end());
  std::sort(added_pairs_.begin(), added_pairs_.end());
  const bool counts_unchanged =
      occupancy_unchanged && removed_pairs_ == added_pairs_;

  remember_window(window);
  if (!counts_unchanged) {
    // Counts net-changed: re-finish the matrix and drop the uptime memo.
    // The state set is unchanged on this path, so the refit rewrites
    // model_.trans in place — no Matrix/pi/state_prices allocations.
    detail::refit_markov_model(model_, trans_counts_, occupancy_,
                               static_cast<std::int64_t>(size_),
                               kDefaultSmoothing, pi_scratch_);
    ++model_refreshes_;
    ++epoch_;
  }
  return true;
}

void IncrementalMarkovModel::rebuild_full(const PriceView& window) {
  // Fill the shared fit buffers: chronological values plus a full sort.
  // Slides keep fit_.sorted up to date instead of re-running this sort.
  fit_.values.resize(window.size());
  for (std::size_t i = 0; i < window.size(); ++i)
    fit_.values[i] = window.sample(i).to_double();
  fit_.sorted.assign(fit_.values.begin(), fit_.values.end());
  std::sort(fit_.sorted.begin(), fit_.sorted.end());
  distinct_ = 1;
  for (std::size_t i = 1; i < fit_.sorted.size(); ++i)
    if (fit_.sorted[i] != fit_.sorted[i - 1]) ++distinct_;
  model_ = detail::build_markov_model_presorted(fit_, window.step(),
                                                max_states_, kDefaultSmoothing);
  ++full_rebuilds_;
  ++model_refreshes_;
  ++epoch_;

  binned_ = distinct_ > max_states_;
  remember_window(window);
  if (binned_) {
    // Binned slides maintain the window multiset as counting arrays and
    // re-expand fit_.sorted from them on each refit.
    bin_levels_.clear();
    bin_counts_.clear();
    for (const double v : fit_.sorted) {
      if (bin_levels_.empty() || bin_levels_.back() != v) {
        bin_levels_.push_back(v);
        bin_counts_.push_back(1);
      } else {
        ++bin_counts_.back();
      }
    }
    return;
  }

  // Exact unique mode: distinct micro-dollar prices, ascending, plus the
  // integer counts the unique-mode slide maintains.
  state_micros_.clear();
  for (std::size_t i = 0; i < window.size(); ++i)
    state_micros_.push_back(window.sample(i).micros());
  std::sort(state_micros_.begin(), state_micros_.end());
  state_micros_.erase(
      std::unique(state_micros_.begin(), state_micros_.end()),
      state_micros_.end());

  const std::size_t n = state_micros_.size();
  REDSPOT_CHECK(n == model_.num_states());
  trans_counts_.assign(n * n, 0);
  occupancy_.assign(n, 0);
  std::size_t prev = SIZE_MAX;
  for (std::size_t i = 0; i < window.size(); ++i) {
    const std::size_t s = state_index(window.sample(i));
    ++occupancy_[s];
    if (prev != SIZE_MAX) ++trans_counts_[prev * n + s];
    prev = s;
  }

  occ_scratch_.reserve(n);
  removed_pairs_.reserve(16);
  added_pairs_.reserve(16);
}

Duration IncrementalMarkovModel::expected_uptime(Money current_price,
                                                 Money bid) {
  REDSPOT_CHECK_MSG(valid_, "observe() a window first");
  // Same early-outs as redspot::expected_uptime, before touching the memo:
  // these depend on the raw prices, not only on the (state, alive) key.
  if (current_price > bid) return 0;
  const std::size_t a = model_.max_alive_state(bid);
  if (a == SIZE_MAX) return 0;
  const std::size_t s = model_.state_of(current_price);
  if (s > a) return 0;  // nearest state is out-of-bid

  // A binned refit can have more states than any earlier fit (quantile
  // bins collapse on duplicates), so the memo grows here; new slots read
  // epoch 0, never fresh. A shrunk model keeps the larger memo.
  const std::size_t n = model_.num_states();
  if (memo_.size() < n * n) {
    memo_.resize(n * n);
    memo_epoch_.resize(n * n);
  }
  const std::size_t key = s * n + a;
  if (memo_epoch_[key] == epoch_) {
    ++memo_hits_;
    return memo_[key];
  }
  memo_[key] = redspot::expected_uptime(model_, current_price, bid,
                                        kDefaultUptimeCap, uptime_scratch_);
  memo_epoch_[key] = epoch_;
  return memo_[key];
}

}  // namespace redspot
