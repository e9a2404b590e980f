// Sliding-window Markov model with incremental updates (decision path).
//
// Markov-based policies refit build_markov_model() over the trailing
// 2-day window at every decision, even though consecutive decisions see
// windows that differ by a handful of 5-minute samples. This class keeps
// the integer transition counts and occupancy of the current window and
// slides them — add the newest samples, evict the oldest — instead of
// re-sorting and re-counting 576 samples per decision.
//
// Invariants and triggers (DESIGN.md §10):
//   * The model is rebuilt from scratch only when the *state set* changes:
//     an appended sample introduces an unseen price, or an evicted sample
//     removes the last occurrence of one. Otherwise the state index map is
//     stable and counts slide in O(samples moved).
//   * Sliding is only attempted when the new window is a forward slide
//     over the SAME underlying storage (the zone trace outlives the run,
//     so evicted samples can still be read from the previous span). A
//     window over different storage, a backward move, or a sampling-step
//     change falls back to a full rebuild.
//   * Quantile-binned windows (distinct prices > max_states) keep the
//     window's sample multiset as flat counting arrays (distinct levels +
//     multiplicities), edit the counts across slides, and re-run the
//     shared mapping pass over the expanded multiset — identical input,
//     identical arithmetic, identical model — instead of re-sorting the
//     whole window or memmoving a sorted array per sample. The model
//     still refreshes on every binned slide (bin means move with the
//     window), but the per-decision path is count edits plus one linear
//     expansion.
//   * The normalized matrix is re-finished only when the counts NET-change.
//     A constant-price slide removes and adds the same transition, leaving
//     counts — and therefore the model and the expected-uptime memo —
//     untouched. This is the steady state: no allocation, no FP work.
//   * expected_uptime memoizes per (start state, max alive state) and is
//     the decision path's one E[Tu] cache (DESIGN.md §10). A model is
//     single-threaded: one engine or batch group owns it, and the serve
//     registry mutates an entry's models only under the request batcher's
//     per-key exclusivity.
//
// Bit-identity: counts are integers, and detail::finish_markov_model
// reproduces build_markov_model's arithmetic from integer counts exactly,
// so model() always equals build_markov_model(window) bit-for-bit
// (property-tested in markov_test / decision_path_test).
#pragma once

#include <cstdint>
#include <vector>

#include "common/money.hpp"
#include "common/time.hpp"
#include "markov/model.hpp"
#include "markov/uptime.hpp"
#include "trace/price_view.hpp"

namespace redspot {

class IncrementalMarkovModel {
 public:
  /// Fits with kDefaultSmoothing, like build_markov_model's default.
  explicit IncrementalMarkovModel(std::size_t max_states = 32);

  /// Refits the model to `window`, sliding incrementally when possible.
  /// `window` may borrow storage freely: only its samples are read, during
  /// this call (plus the previous window's span, which must still be
  /// readable — true for views into a live zone trace).
  const MarkovModel& observe(const PriceView& window);

  /// The current model. Requires a prior observe().
  const MarkovModel& model() const;

  /// Memoized exact expected up-time on the current model; equals
  /// redspot::expected_uptime(model(), current_price, bid) bit-for-bit.
  /// The memo is keyed on (start state, max alive state) — the only inputs
  /// the closed-form solve depends on — and survives slides that leave the
  /// counts net-unchanged.
  Duration expected_uptime(Money current_price, Money bid);

  // Introspection for tests and benchmarks.
  std::uint64_t full_rebuilds() const { return full_rebuilds_; }
  std::uint64_t incremental_slides() const { return incremental_slides_; }
  std::uint64_t model_refreshes() const { return model_refreshes_; }
  std::uint64_t memo_hits() const { return memo_hits_; }

 private:
  void rebuild_full(const PriceView& window);
  /// Attempts the incremental slide; false means "fall back to rebuild".
  bool try_slide(const PriceView& window);
  /// Unique-price mode: slide the integer transition counts.
  bool slide_unique(const PriceView& window, std::size_t shift);
  /// Quantile-binned mode: slide the sorted multiset, refit via the shared
  /// mapping pass.
  bool slide_binned(const PriceView& window, std::size_t shift);
  /// State index of an exact observed price, or SIZE_MAX when unseen.
  std::size_t state_index(Money price) const;
  void remember_window(const PriceView& window);

  std::size_t max_states_;

  // Identity of the window the counts describe.
  bool valid_ = false;
  bool binned_ = false;  ///< quantile mode: slides via the sorted multiset
  const Money* data_ = nullptr;
  std::size_t size_ = 0;
  SimTime start_ = 0;
  Duration step_ = kPriceStep;

  // Exact state set (unique mode): ascending micro-dollar prices, aligned
  // with model_.state_prices.
  std::vector<std::int64_t> state_micros_;
  std::vector<std::int64_t> trans_counts_;  ///< n x n, row-major
  std::vector<std::int64_t> occupancy_;     ///< per-state sample count

  MarkovModel model_;

  // expected_uptime memo: n*n slots keyed start_state * n + alive_state,
  // epoch-invalidated so steady-state slides never touch the heap. A slot
  // is fresh when memo_epoch_ equals epoch_ (>= 1 after the first fit, so
  // a default slot never is).
  std::vector<Duration> memo_;
  std::vector<std::uint32_t> memo_epoch_;
  std::uint32_t epoch_ = 0;

  // Reusable scratch (persisted to keep the slide allocation-free).
  std::vector<std::int64_t> occ_scratch_;
  std::vector<std::uint32_t> removed_pairs_;
  std::vector<std::uint32_t> added_pairs_;
  std::vector<double> pi_scratch_;  ///< smoothing distribution for refits

  // Binned mode: the window's sample multiset as flat counting arrays —
  // bin_levels_ the distinct prices ascending, bin_counts_[i] the
  // multiplicity of bin_levels_[i], distinct_ == bin_levels_.size().
  // Slides edit the counts and expand them back into fit_.sorted per
  // refit; both are repopulated whenever rebuild_full runs.
  std::vector<double> bin_levels_;
  std::vector<std::int64_t> bin_counts_;

  // Shared fit buffers (fit_.sorted is the expanded multiset above in
  // binned mode, the full re-sort in a rebuild).
  detail::MarkovScratch fit_;
  std::size_t distinct_ = 0;
  UptimeScratch uptime_scratch_;

  std::uint64_t full_rebuilds_ = 0;
  std::uint64_t incremental_slides_ = 0;
  std::uint64_t model_refreshes_ = 0;
  std::uint64_t memo_hits_ = 0;
};

}  // namespace redspot
