// Expected zone up-time at a bid price (Appendix B, Equations 2-3).
//
// Starting from the current price state, mass evolves through the
// transition matrix; mass reaching a state whose price exceeds the bid is
// "terminated". The expected up-time is the mean absorption time of this
// substochastic chain, in chain steps, converted to seconds.
//
// Two implementations:
//   * expected_uptime_iterative — the paper's literal iteration: propagate
//     PROB, accumulate k x (mass dying at step k) until the estimate is
//     stable at seconds granularity (the paper's Th) or a step cap.
//   * expected_uptime — exact closed form via the absorbing-chain
//     fundamental matrix: t = (I - Q)^{-1} 1 restricted to alive states.
//     Identical in the limit, and O(alive_states^3) instead of
//     O(Th x states^2).
//
// Both clamp at `cap`: when the bid exceeds every price the chain can
// reach, the expected up-time is unbounded and the cap (default 30 days)
// stands in for "effectively forever".
#pragma once

#include <span>

#include "common/money.hpp"
#include "common/time.hpp"
#include "markov/model.hpp"

namespace redspot {

inline constexpr Duration kDefaultUptimeCap = 30 * kDay;

/// Reusable buffers for the closed-form solve. Policies call
/// expected_uptime at every decision point; a persistent scratch keeps the
/// per-call heap traffic at zero.
struct UptimeScratch {
  std::vector<double> i_minus_q;  ///< m x m, row-major
  std::vector<std::size_t> perm;
  /// Expected steps to absorption per alive state, from the start state
  /// up (the solve stops there; lower entries hold forward-solve values).
  std::vector<double> t;
};

/// Exact expected up-time starting from `current_price`, bidding `bid`.
/// Returns 0 when the current price already exceeds the bid.
Duration expected_uptime(const MarkovModel& model, Money current_price,
                         Money bid, Duration cap = kDefaultUptimeCap);

/// As expected_uptime, reusing `scratch` — bit-identical result, no
/// allocation once the scratch is warm.
Duration expected_uptime(const MarkovModel& model, Money current_price,
                         Money bid, Duration cap, UptimeScratch& scratch);

/// The paper's iterative estimator (Equations 2-3). `max_steps` bounds Th.
Duration expected_uptime_iterative(const MarkovModel& model,
                                   Money current_price, Money bid,
                                   std::size_t max_steps = 20000,
                                   Duration cap = kDefaultUptimeCap);

/// Combined expected up-time of independent zones: the sum of the
/// per-zone values (Section 4.2). Zones currently out-of-bid contribute 0.
Duration combined_expected_uptime(std::span<const Duration> per_zone);

}  // namespace redspot
