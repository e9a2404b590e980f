// Ensemble specification: what to replicate, how many times, and how.
//
// An EnsembleSpec names one scenario cell (volatility window, slack,
// checkpoint cost), a set of strategy configurations to evaluate, and a
// replication plan. Each replication r synthesizes its own trace
// realization from a ReplicationSeeder substream, starts at one of the
// scenario's overlapping chunk offsets (r mod starts_grid), and runs every
// configuration against the same realization — so cross-configuration
// comparisons are paired, exactly like the paper's per-chunk boxplots.
//
// spec_hash() fingerprints every field that affects the numerical result;
// it keys the EnsembleCache so identical sweeps are never recomputed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/money.hpp"
#include "core/engine.hpp"
#include "core/policy.hpp"
#include "core/strategy.hpp"
#include "exp/scenario.hpp"

namespace redspot {

/// One strategy configuration evaluated by the ensemble.
struct EnsembleConfig {
  enum class Kind { kFixedPolicy, kAdaptive, kLargeBid };

  Kind kind = Kind::kFixedPolicy;
  PolicyKind policy = PolicyKind::kPeriodic;  ///< kFixedPolicy only
  Money bid = Money::cents(81);               ///< kFixedPolicy only
  std::vector<std::size_t> zones{0};          ///< kFixedPolicy / kLargeBid
  Money threshold = Money::cents(81);         ///< kLargeBid only
  /// Display label; empty derives one from the fields.
  std::string label;

  std::string display_label() const;

  /// Fresh strategy instance for one run (strategies are stateful).
  std::unique_ptr<Strategy> make_strategy() const;
};

/// Derived metric: per replication, the minimum cost over a set of member
/// configurations (the paper's "best-case redundancy-based policy").
struct MinGroup {
  std::string label;
  std::vector<std::size_t> members;  ///< indices into EnsembleSpec::configs
};

struct EnsembleSpec {
  // --- scenario cell -------------------------------------------------------
  VolatilityWindow window = VolatilityWindow::kHigh;
  double slack_fraction = 0.15;
  Duration checkpoint_cost = 300;

  // --- replication plan ----------------------------------------------------
  std::uint64_t seed = 42;
  std::size_t replications = 1000;
  /// Number of overlapping chunk starts the window is divided into;
  /// replication r starts at chunk r % starts_grid (the paper's 80).
  std::size_t starts_grid = 80;
  /// Fixed shard count for deterministic parallel reduction. Must not
  /// depend on the executing pool's size.
  std::size_t num_shards = 64;

  // --- estimators ----------------------------------------------------------
  std::size_t bootstrap_replicates = 200;
  double ci_level = 0.95;

  // --- what to run ---------------------------------------------------------
  EngineOptions engine;
  std::vector<EnsembleConfig> configs;
  std::vector<MinGroup> min_groups;

  /// Consult/populate the process-wide EnsembleCache.
  bool use_cache = true;

  /// Throws CheckFailure on malformed specs (no configs, out-of-range
  /// group members, zero replications, a multi-zone Large-bid, ...).
  void validate() const;

  /// Fingerprint of every result-affecting field (not use_cache).
  std::uint64_t spec_hash() const;
};

}  // namespace redspot
