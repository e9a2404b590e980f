// Bid advice over shared incremental models (DESIGN.md §12).
//
// The serve daemon answers one question for many tenants: "given the live
// price history and my job's remaining work, what should I do right now?"
// The answer is exactly the offline Adaptive decision (Section 7 of the
// paper): find the cheapest permutation of (bid, zone subset, policy) over
// the trailing history window with best_permutation and adopt it, then
// derive the execution knobs — expected Markov up-time of the chosen zones
// at their current prices, and the Daly checkpoint interval that up-time
// implies.
//
// Tenants sharing a ModelSpec share one ModelEntry: one HistoryStats and
// one IncrementalMarkovModel per zone, slid incrementally as ticks arrive.
// compute_advice() MUTATES the entry (slides models, fills memos) and must
// therefore run under the entry's exclusivity discipline — the request
// batcher's per-key serialization in the server, plain single-threadedness
// in tests. advise_offline() is the from-scratch oracle: fresh stats,
// fresh models, same arithmetic; bit-identity between the two is the serve
// correctness contract (asserted in serve_test / bench_serve).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/money.hpp"
#include "common/time.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/adaptive/history_stats.hpp"
#include "core/policy.hpp"
#include "markov/incremental.hpp"
#include "trace/zone_traces.hpp"

namespace redspot::serve {

/// Identity of one shared model: tenants registering equal specs share one
/// ModelEntry. The defaults are AdaptiveStrategy's constants and the
/// paper's 2-day history window.
struct ModelSpec {
  Duration history_span = 2 * kDay;
  std::vector<Money> bid_grid = paper_bid_grid();
  std::size_t max_states = 32;  ///< Markov bins (quantile mode above this)
  std::size_t max_zones = AdaptiveStrategy::kMaxZones;
  std::vector<PolicyKind> policies =
      std::vector<PolicyKind>(AdaptiveStrategy::kCandidatePolicies.begin(),
                              AdaptiveStrategy::kCandidatePolicies.end());
  /// Fingerprint of the market regime the advice is computed for
  /// (market/regime.hpp regime_fingerprint). 0 = classic 2012; distinct
  /// regimes never share models or cached advice.
  std::uint64_t regime_fingerprint = 0;

  /// Order-sensitive fingerprint of every field; the registry key.
  std::uint64_t spec_hash() const;
  /// Registry byte accounting: steady-state footprint of one ModelEntry
  /// built from this spec against `num_zones` zones of `window_samples`
  /// samples each.
  std::size_t approx_bytes(std::size_t num_zones) const;
};

/// Per-request job parameters (the tenant's side of EstimatorInputs).
struct JobParams {
  Duration remaining_compute = 0;   ///< C_r
  Duration remaining_time = 0;      ///< T_r
  Duration checkpoint_cost = 300;   ///< t_c
  Duration restart_cost = 300;      ///< t_r
  Duration mean_queue_delay = AdaptiveStrategy::kMeanQueueDelay;
  Money on_demand_rate = Money::dollars(2.40);
};

/// The answer, stamped with the history end it was computed from.
struct Advice {
  SimTime as_of = 0;  ///< history end time backing this advice
  Money bid;
  std::vector<std::size_t> zones;
  PolicyKind policy = PolicyKind::kPeriodic;
  Money predicted_cost;
  /// Summed Markov expected up-time of the chosen zones at their current
  /// prices under the recommended bid (the Markov-Daly MTBF input).
  Duration expected_uptime = 0;
  /// Daly-optimal compute seconds between checkpoints for that up-time;
  /// 0 when the recommended policy checkpoints at hour boundaries
  /// (Periodic) or when nothing is expected to survive (uptime == 0).
  Duration checkpoint_interval = 0;

  bool operator==(const Advice&) const = default;
};

/// One shared model: trailing-window permutation stats plus one sliding
/// Markov model per zone, all borrowing the live trace storage.
struct ModelEntry {
  explicit ModelEntry(ModelSpec s) : spec(std::move(s)) {}

  ModelSpec spec;
  std::optional<HistoryStats> hist;
  std::vector<IncrementalMarkovModel> zone_models;

  // Introspection: how often the incremental paths actually slid.
  std::uint64_t advises = 0;
};

/// The trailing history window [from, now) an entry was slid to.
struct SlideWindow {
  SimTime from = 0;
  SimTime now = 0;  ///< decision time: the newest sample's timestamp
};

/// Slides `entry`'s history stats to the trailing window ending at the
/// newest sample of `traces` and sizes its per-zone models to the traces.
/// Decision time mirrors the engine: when the tick effective at T arrives,
/// the engine reconsiders at now = T with history [T - span, T), so the
/// new sample is the current price, not yet history. Both the advise path
/// (compute_advice) and the tick path start here, then observe their own
/// zones over the returned window.
SlideWindow slide_history(ModelEntry& entry, const ZoneTraceSet& traces);

/// Slides `entry` to the trailing window of `traces` ending at
/// traces.end() and answers `job`. Mutates the entry (see file comment);
/// the traces must be the same live storage across calls for the slides
/// to stay incremental.
Advice compute_advice(ModelEntry& entry, const ZoneTraceSet& traces,
                      const JobParams& job);

/// From-scratch oracle: the advice a fresh ModelEntry over the same traces
/// produces. Bit-identical to compute_advice() from any slide history.
Advice advise_offline(const ModelSpec& spec, const ZoneTraceSet& traces,
                      const JobParams& job);

}  // namespace redspot::serve
