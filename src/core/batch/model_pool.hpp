// Per-zone Markov models: the one owner of the decision path's Markov
// state (DESIGN.md §10, §14).
//
// Every engine answers EngineView::expected_uptime from a pool: its own
// by default, or its batch group's after Engine::join_group. Every engine
// in a batch group sees the same trace, and the history
// window a policy fits is a pure function of (zone, now): it does not
// depend on which engine asks. Because the group advances in global time
// order, the shared per-zone IncrementalMarkovModel only ever slides
// forward — N engines pay ONE slide per tick instead of N — and the
// (start state, alive state) uptime memo inside each model dedupes the
// closed-form solves across every lane and bid of the group.
//
// Bit-identity: IncrementalMarkovModel::observe(w) equals
// build_markov_model(w) bit-for-bit regardless of slide history (the §10
// property), and the memoized uptime equals the free-function solve
// bit-for-bit, so a shared pool answers exactly the doubles a private
// per-engine pool would — for ANY interleaving of the group's engines.
//
// The pool is single-threaded by construction (one pool per engine or per
// batch group, one group per sweep task).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/money.hpp"
#include "common/time.hpp"
#include "markov/incremental.hpp"

namespace redspot::batch {

class ZoneModelPool {
 public:
  /// Markov state bound of every pooled model (see markov/model.hpp).
  static constexpr std::size_t kMaxStates = 64;

  /// Registers the group's bid grid (any order; deduped ascending). With
  /// two or more distinct bids, each model refresh prewarms the uptime
  /// memo for the whole grid through the branchless alive-state kernel,
  /// so per-lane queries hit warm slots.
  void set_bid_grid(std::span<const Money> bids);

  /// observe(history) on the model of `zone`, then its memoized expected
  /// uptime. Without a bid grid these are exactly those two calls; with
  /// one, grid bids read the prewarmed answer, bit-identical to them.
  Duration expected_uptime(std::size_t zone, const PriceView& history,
                           Money price, Money bid);

 private:
  struct ZoneSlot {
    IncrementalMarkovModel model{kMaxStates};
    /// Refresh counter + price the grid was last prewarmed for; a stale
    /// pair means the model moved (or the price did) and the warmed
    /// answers below no longer apply.
    std::uint64_t warmed_refreshes = UINT64_MAX;
    std::int64_t warmed_price_micros = INT64_MIN;
    /// Parallel to bid_grid_: the model's expected uptime at the warmed
    /// (refreshes, price) for each grid bid — exactly what
    /// model.expected_uptime would return, captured once per refresh so
    /// per-lane queries are a single array read instead of a state lookup
    /// plus memo probe per consult.
    std::vector<Duration> warmed_uptime;
  };

  ZoneSlot& slot(std::size_t zone);
  void prewarm(ZoneSlot& z, Money price);

  std::vector<Money> bid_grid_;
  /// SoA scratch for the prewarm kernel: flat state prices and per-bid
  /// alive states (see batch_state.hpp).
  std::vector<double> grid_prices_;
  std::vector<std::int32_t> grid_alive_;
  /// Indexed by global zone id; unique_ptr keeps models address-stable.
  std::vector<std::unique_ptr<ZoneSlot>> zones_;
};

}  // namespace redspot::batch
