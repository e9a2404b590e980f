// Policy-zoo head-to-head harness (DESIGN.md §15): every policy of the
// zoo against every market regime of the catalog, on one scenario, with
// bootstrap CIs — the repo's flagship comparison table.
//
// Each (regime, policy) cell is an ordinary journaled sweep: the cell's
// journal key already contains the regime because hash_engine_options
// folds in the regime fingerprint, so a single RunJournal makes the whole
// matrix resumable chunk-by-chunk exactly like every other sweep. Costs
// aggregate into a mean with a Poisson-bootstrap CI and a deadline-miss
// rate with a Wilson CI; unlike the figure benches, a missed deadline is
// a *data point* here (the on-demand switchover cost shows up in the
// mean), not an assertion failure — regimes are allowed to change how
// often policies get cornered.
//
// Roster (9 rows): the paper's four fixed policies run with full
// redundancy (N = all zones), the two zoo entries (randomized-bid with
// its seeded draw over [price floor, on-demand]; index-track over the
// zone set), large-bid, Adaptive, and the on-demand baseline as the
// anchor row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "market/regime.hpp"
#include "market/spot_market.hpp"

namespace redspot {

struct HeadToHeadOptions {
  Scenario scenario;
  /// Regimes to run (columns of the matrix); defaults to the catalog.
  std::vector<MarketRegime> regimes;
  /// Bid for the fixed policies and large-bid's threshold L.
  Money bid = Money::cents(81);
  /// Floor of randomized-bid's draw interval (the draw's ceiling is the
  /// market's on-demand rate).
  Money bid_floor = Money::cents(27);
  /// Seeds the randomized-bid draw and the per-cell bootstrap streams.
  std::uint64_t seed = 42;
  double ci_level = 0.95;
  std::size_t bootstrap_replicates = 200;
  /// Non-null makes every cell's sweep durable/resumable.
  RunJournal* journal = nullptr;
};

/// One (regime, policy) cell of the matrix.
struct HeadToHeadCell {
  std::string regime;
  std::string policy;
  std::size_t n = 0;
  double mean_cost = 0.0;
  double cost_lo = 0.0;  ///< bootstrap CI on the mean
  double cost_hi = 0.0;
  double q1_cost = 0.0;
  double median_cost = 0.0;
  double q3_cost = 0.0;
  double miss_rate = 0.0;  ///< deadline misses / n
  double miss_lo = 0.0;    ///< Wilson CI
  double miss_hi = 0.0;
};

struct HeadToHeadResult {
  std::vector<HeadToHeadCell> cells;  ///< regime-major, roster order
  double ci_level = 0.95;
  Money drawn_bid;                    ///< randomized-bid's seeded draw

  std::size_t chunks_replayed = 0;    ///< journal hits across all cells
  std::size_t chunks_recomputed = 0;

  /// One ci_table per regime, concatenated.
  std::string table(const std::string& title) const;
};

/// Runs the full matrix. `market` supplies traces and the on-demand rate;
/// every regime runs on the same traces (a regime changes billing and
/// notice semantics, not the lane set).
HeadToHeadResult run_head_to_head(const SpotMarket& market,
                                  const HeadToHeadOptions& options);

}  // namespace redspot
