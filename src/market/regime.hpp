// Market regimes: the pluggable rule set for "which cloud are we on".
//
// The paper's evaluation assumes the EC2 of 2012: hourly billing with the
// interrupted partial hour refunded and no warning before an out-of-bid
// kill. Neither survived: EC2 bills per second (60 s minimum) since 2017,
// stopped refunding interrupted partials, and sends a 2-minute capacity
// rebalance / interruption notice. A MarketRegime bundles those axes so
// the engine, the policies, and the sweep/ensemble cache keys can treat
// "which market" as configuration instead of a fork (DESIGN.md §15).
//
// The default-constructed regime is bit-identical to the classic engine:
// every regime field is threaded through the stack such that the classic
// values reproduce the pre-regime behaviour exactly (the PR-5 oracle
// suite and the md5-gated figure reproductions pin this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/money.hpp"
#include "common/time.hpp"
#include "market/billing.hpp"

namespace redspot {

/// The market rule set for one run. Value type; compare with == for the
/// batching homogeneity gate.
struct MarketRegime {
  /// Catalog name ("classic-2012", "per-second", ...); also the knob the
  /// CLI / head-to-head harness selects regimes by.
  std::string name = "classic-2012";

  BillingRules billing;

  /// Lead time of the termination notice before a provider kill (EC2's
  /// capacity-rebalance / interruption warning: 120 s). Zero means kills
  /// land unannounced, as in 2012. When positive, an out-of-bid price tick
  /// fixes the kill instant `rebalance_notice` ahead and delivers a
  /// kRebalanceNotice event that moves the zone to kRebalanceWarned until
  /// then instead of terminating on the spot. This is the engine's only
  /// notice path: the Appendix-A what-if is the classic regime with this
  /// field set.
  Duration rebalance_notice = 0;

  bool operator==(const MarketRegime&) const = default;

  /// Named constructors — the regimes of the head-to-head matrix.
  static MarketRegime classic_2012();   ///< the paper's market (default)
  static MarketRegime per_second();     ///< per-second billing, no refund
  static MarketRegime rebalance();      ///< classic billing + 2-min notice
  static MarketRegime modern_multi();   ///< per-second + 2-min notice

  /// Shared immutable classic instance (for defaulted references).
  static const MarketRegime& classic();
};

/// All named regimes, classic first.
const std::vector<MarketRegime>& regime_catalog();

/// Looks up a catalog regime by name; throws CheckFailure when unknown.
const MarketRegime& regime_by_name(const std::string& name);

/// Folds every regime field into `h` (order-sensitive). Part of
/// hash_engine_options, hence of every sweep/journal/ensemble key.
void hash_regime(HashStream& h, const MarketRegime& regime);

/// Convenience: the 64-bit fingerprint of a regime alone (serve-plane
/// ModelSpec embeds this rather than the full struct).
std::uint64_t regime_fingerprint(const MarketRegime& regime);

}  // namespace redspot
