// Sliding-window Markov model with incremental updates (decision path).
//
// Markov-based policies refit build_markov_model() over the trailing
// 2-day window at every decision, even though consecutive decisions see
// windows that differ by a handful of 5-minute samples. This class keeps
// the window's price multiset — its distinct prices (levels) and their
// multiplicities — plus, in unique mode, the transition counts
// between levels, and slides them: add the newest samples, evict the
// oldest, refit from what it holds. It never re-sorts a slid window.
//
// Invariants and triggers (DESIGN.md §10):
//   * Sliding is attempted whenever the new window is a forward slide over
//     the SAME underlying storage (the zone trace outlives the run, so
//     evicted samples can still be read from the previous span). A first
//     observe, a window over different storage, a backward move, a move
//     past the whole previous window, or a sampling-step change rebuilds
//     from scratch — the only rebuilds.
//   * Unique mode (distinct prices <= max_states; the levels are the
//     states): an appended unseen price inserts its state, and an evicted
//     last occurrence erases its state, re-indexing the transition counts
//     in place; then the counts slide in O(samples moved) and the matrix
//     is re-finished from them.
//   * Quantile-binned mode (distinct prices > max_states): a slide edits
//     the level counts and refits from them — the quantile edges are
//     order statistics read off the cumulative counts, and one
//     chronological pass over the window bins the samples, sums the bin
//     means and counts transitions. The model refreshes on every binned
//     slide (bin means move with the window).
//   * Crossing between the modes needs no sort either: the levels carry
//     over, and the fit recounts transitions for the new mode.
//   * The normalized matrix is re-finished only when the counts NET-change.
//     A constant-price slide removes and adds the same transition, leaving
//     counts — and therefore the model and the expected-uptime memo —
//     untouched. This is the steady state: no allocation, no FP work.
//   * Refits write into the model's own storage, reserved for max_states
//     states at the first fit: a warm slide, binned or unique, does not
//     touch the heap.
//   * expected_uptime memoizes per (start state, max alive state) and is
//     the decision path's one E[Tu] cache (DESIGN.md §10). A model is
//     single-threaded: one engine or batch group owns it, and the serve
//     registry mutates an entry's models only under the request batcher's
//     per-key exclusivity.
//
// Bit-identity: counts are exact integers, and every refit goes through the
// same detail::fit_markov_model / detail::refit_markov_model arithmetic as
// build_markov_model, so model() always equals build_markov_model(window)
// bit-for-bit (property-tested in markov_test / decision_path_test).
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
  /// Slides to `window`, a forward move by `shift` samples over the same
  /// storage; false means "not a forward slide, rebuild".
  bool try_slide(const PriceView& window);
  /// Edits the levels, counts and (unique mode) transition counts by the
  /// samples that left and arrived, then refits.
  void slide(const PriceView& window, std::size_t shift);
  /// Inserts the level `micros` at `pos` with one sample; in unique mode
  /// also its zero row and column of the transition counts, unless the
  /// state set outgrows max_states (then the counts are recounted).
  void insert_level(std::size_t pos, std::int64_t micros);
  /// Erases every level whose count reached zero, with its row and column.
  void erase_empty_levels();
  /// Index of the level `micros`; it must be present.
  std::size_t level_index(std::int64_t micros) const;
  void remember_window(const PriceView& window);

  std::size_t max_states_;

  // Identity of the window the counts describe.
  bool valid_ = false;
  /// Unique mode with fit_.trans_counts over the levels, kept in step with
  /// every slide; false in binned mode (its counts are over the bins).
  bool tracking_ = false;
  const Money* data_ = nullptr;
  std::size_t size_ = 0;
  SimTime start_ = 0;
  Duration step_ = kPriceStep;

  // The window's levels and counts, transition counts and fit buffers.
  detail::MarkovScratch fit_;
  MarkovModel model_;

  // expected_uptime memo: n*n slots keyed start_state * n + alive_state,
  // epoch-invalidated so steady-state slides never touch the heap. A slot
  // is fresh when memo_epoch_ equals epoch_ (>= 1 after the first fit, so
  // a default slot never is).
  std::vector<Duration> memo_;
  std::vector<std::uint32_t> memo_epoch_;
  std::uint32_t epoch_ = 0;

  // Reusable slide scratch (persisted to keep the slide allocation-free).
  std::vector<std::int64_t> counts_before_;
  std::vector<std::uint32_t> removed_pairs_;
  std::vector<std::uint32_t> added_pairs_;
  UptimeScratch uptime_scratch_;

  std::uint64_t full_rebuilds_ = 0;
  std::uint64_t incremental_slides_ = 0;
  std::uint64_t model_refreshes_ = 0;
  std::uint64_t memo_hits_ = 0;
};

}  // namespace redspot
