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

std::size_t IncrementalMarkovModel::level_index(std::int64_t micros) const {
  const std::vector<std::int64_t>& levels = fit_.levels;
  const auto it = std::lower_bound(levels.begin(), levels.end(), micros);
  REDSPOT_CHECK(it != levels.end() && *it == micros);
  return static_cast<std::size_t>(it - levels.begin());
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
  slide(window, shift);
  return true;
}

void IncrementalMarkovModel::insert_level(std::size_t pos,
                                          std::int64_t micros) {
  std::vector<std::int64_t>& levels = fit_.levels;
  levels.insert(levels.begin() + static_cast<std::ptrdiff_t>(pos), micros);
  fit_.counts.insert(fit_.counts.begin() + static_cast<std::ptrdiff_t>(pos),
                     1);
  if (!tracking_) return;
  const std::size_t n = levels.size();
  if (n > max_states_) {
    // The state set may shrink back within this slide, but the exact
    // counts no longer fit: the refit recounts them from the levels.
    tracking_ = false;
    return;
  }
  // Re-index the (n-1) x (n-1) counts to n x n with a zero row and column
  // at `pos`, in place: every entry moves to an equal or later index, so
  // walking from the end never overwrites an unread entry.
  std::vector<double>& trans = fit_.trans_counts;
  const std::size_t old_n = n - 1;
  trans.resize(n * n);
  for (std::size_t r = old_n; r-- > 0;) {
    double* row = trans.data() + (r + (r >= pos ? 1 : 0)) * n;
    for (std::size_t c = old_n; c-- > pos;) row[c + 1] = trans[r * old_n + c];
    row[pos] = 0.0;
    for (std::size_t c = pos; c-- > 0;) row[c] = trans[r * old_n + c];
  }
  std::fill_n(trans.begin() + static_cast<std::ptrdiff_t>(pos * n), n, 0.0);
}

void IncrementalMarkovModel::erase_empty_levels() {
  std::vector<std::int64_t>& levels = fit_.levels;
  std::vector<std::int64_t>& counts = fit_.counts;
  const std::size_t n = levels.size();
  if (tracking_) {
    // Drop the emptied states' rows and columns (all zero: every
    // transition touching an evicted sample was evicted with it), moving
    // entries to equal or earlier indices.
    std::vector<double>& trans = fit_.trans_counts;
    std::size_t out = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (counts[r] == 0) continue;
      for (std::size_t c = 0; c < n; ++c)
        if (counts[c] != 0) trans[out++] = trans[r * n + c];
    }
    trans.resize(out);
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (counts[i] == 0) continue;
    levels[kept] = levels[i];
    counts[kept] = counts[i];
    ++kept;
  }
  levels.resize(kept);
  counts.resize(kept);
}

void IncrementalMarkovModel::slide(const PriceView& window,
                                   std::size_t shift) {
  // The new window starts `shift` samples into the old span's storage, so
  // old-local index i < end reads both the evicted and the appended
  // samples from one array.
  const Money* s = data_;
  const std::size_t end = shift + window.size();
  std::vector<std::int64_t>& levels = fit_.levels;
  std::vector<std::int64_t>& counts = fit_.counts;

  if (tracking_) counts_before_.assign(counts.begin(), counts.end());
  bool set_changed = false;
  // Count in the appended samples, inserting unseen prices as levels.
  for (std::size_t i = size_; i < end; ++i) {
    const std::int64_t m = s[i].micros();
    const auto it = std::lower_bound(levels.begin(), levels.end(), m);
    const std::size_t pos = static_cast<std::size_t>(it - levels.begin());
    if (it == levels.end() || *it != m) {
      insert_level(pos, m);
      set_changed = true;
    } else {
      ++counts[pos];
    }
  }

  // Slide the transition counts over the union of old and new states:
  // evict the pairs leaving with the old samples, add the appended ones.
  if (tracking_) {
    const std::size_t n = levels.size();
    const auto key = [&](std::size_t i) {
      return static_cast<std::uint32_t>(level_index(s[i].micros()) * n +
                                        level_index(s[i + 1].micros()));
    };
    removed_pairs_.clear();
    added_pairs_.clear();
    for (std::size_t i = 0; i < shift; ++i) {
      removed_pairs_.push_back(key(i));
      fit_.trans_counts[removed_pairs_.back()] -= 1.0;
    }
    for (std::size_t i = size_ - 1; i + 1 < end; ++i) {
      added_pairs_.push_back(key(i));
      fit_.trans_counts[added_pairs_.back()] += 1.0;
    }
  }

  // Count out the evicted samples; a price whose last occurrence left
  // loses its level.
  bool emptied = false;
  for (std::size_t i = 0; i < shift; ++i)
    emptied |= --counts[level_index(s[i].micros())] == 0;
  if (emptied) {
    erase_empty_levels();
    set_changed = true;
  }

  const bool same_size = window.size() == size_;
  remember_window(window);
  if (!tracking_) {
    // Binned, or a unique-mode state set that outgrew max_states mid-slide:
    // refit from the levels, which also recounts unique-mode transitions.
    detail::fit_markov_model(fit_, window, max_states_, kDefaultSmoothing,
                             model_);
    tracking_ = levels.size() <= max_states_;
  } else {
    if (!set_changed && same_size && counts == counts_before_) {
      // Same occupancy; the model stands if the same transitions left as
      // arrived (a constant-price slide).
      std::sort(removed_pairs_.begin(), removed_pairs_.end());
      std::sort(added_pairs_.begin(), added_pairs_.end());
      if (removed_pairs_ == added_pairs_) return;
    }
    if (set_changed) detail::set_level_prices(model_, levels);
    detail::refit_markov_model(model_, fit_.trans_counts, counts,
                               level_index(s[end - 1].micros()),
                               static_cast<std::int64_t>(size_),
                               kDefaultSmoothing, fit_.pi);
  }
  ++model_refreshes_;
  ++epoch_;
}

void IncrementalMarkovModel::rebuild_full(const PriceView& window) {
  if (full_rebuilds_ == 0) {
    // Reserve every refit buffer for the largest model once, so no later
    // slide allocates: the fit below shrinks model_.trans to its shape
    // but keeps the storage.
    const std::size_t cells = max_states_ * max_states_;
    model_.trans.resize(max_states_, max_states_);
    model_.state_prices.reserve(max_states_);
    fit_.trans_counts.reserve(cells);
    fit_.edges.reserve(max_states_);
    fit_.bin_sum.reserve(max_states_);
    fit_.bin_count.reserve(max_states_);
    fit_.pi.reserve(max_states_);
    counts_before_.reserve(max_states_);
    memo_.reserve(cells);
    memo_epoch_.reserve(cells);
    uptime_scratch_.i_minus_q.reserve(cells);
    uptime_scratch_.perm.reserve(max_states_);
    uptime_scratch_.t.reserve(max_states_);
  }
  // The one sort: the window's levels and counts, then the shared fit.
  detail::load_levels(fit_, window);
  detail::fit_markov_model(fit_, window, max_states_, kDefaultSmoothing,
                           model_);
  tracking_ = fit_.levels.size() <= max_states_;
  ++full_rebuilds_;
  ++model_refreshes_;
  ++epoch_;
  remember_window(window);
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

  // The state count moves with refits (binned or exact), so the memo
  // grows within its reserved storage; new slots read epoch 0, never
  // fresh. A shrunk model keeps the larger memo.
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
