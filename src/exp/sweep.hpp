// Experiment sweeps.
//
// Runs a policy configuration over every chunk of a scenario (in parallel —
// chunks are independent simulations) and aggregates per-experiment costs
// the way the paper's boxplots do:
//   * single-zone policies merge the results of all three zones into one
//     distribution (Figures 4 and 5);
//   * the redundancy bar is the best-case redundancy-based policy per
//     experiment (Section 6);
//   * Adaptive and Large-bid run as themselves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/adaptive/adaptive_runner.hpp"
#include "core/engine.hpp"
#include "core/policy.hpp"
#include "exp/scenario.hpp"
#include "market/spot_market.hpp"

namespace redspot {

class RunJournal;

/// One fixed-policy configuration to sweep.
struct PolicyRunSpec {
  PolicyKind policy = PolicyKind::kPeriodic;
  Money bid;
  std::vector<std::size_t> zones;
};

/// Durability controls for one sweep call. When `journal` is non-null,
/// chunks already journaled under this sweep's key (market + scenario +
/// engine options + configuration fingerprint) are replayed instead of
/// re-simulated — after passing the kReplay audit — and freshly computed
/// chunks are appended as kSweepChunk records as they finish. The
/// counters report what actually ran; replay is bit-identical because the
/// journal stores the exact RunResult scalars the aggregations consume.
/// The key hashes every price sample (about 2.4 ms on the paper traces on
/// a 4-vCPU Xeon), so it is computed only when `journal` is non-null.
struct SweepDurability {
  RunJournal* journal = nullptr;
  std::size_t chunks_replayed = 0;    ///< filled on return
  std::size_t chunks_recomputed = 0;  ///< filled on return
};

/// Runs `spec` over all chunks of `scenario`. Results are indexed by chunk.
/// Every computed run is audited live by an AuditObserver (see
/// fault/audit_observer.hpp), and every replayed record by RunValidator in
/// AuditMode::kReplay, before it is returned; `engine_options` carries the
/// market regime (with its termination notice) and the fault-injection
/// configuration.
std::vector<RunResult> run_fixed_sweep(const SpotMarket& market,
                                       const Scenario& scenario,
                                       const PolicyRunSpec& spec,
                                       const EngineOptions& engine_options = {},
                                       SweepDurability* durability = nullptr);

/// Adaptive (Section 7) over all chunks.
std::vector<RunResult> run_adaptive_sweep(
    const SpotMarket& market, const Scenario& scenario,
    const EngineOptions& engine_options = {},
    SweepDurability* durability = nullptr);

/// Large-bid with threshold L in `zone` over all chunks.
std::vector<RunResult> run_large_bid_sweep(const SpotMarket& market,
                                           const Scenario& scenario,
                                           Money threshold, std::size_t zone,
                                           const EngineOptions& engine_options = {},
                                           SweepDurability* durability = nullptr);

/// Fingerprint shared by every sweep of the same (market, scenario, engine
/// options): traces, instance type, delay model and cell parameters. Each
/// run_*_sweep mixes its own configuration on top to form its journal key.
/// Hashes every price sample (about 2.4 ms on the paper traces on a 4-vCPU
/// Xeon); the sweeps call it only when a journal is attached.
std::uint64_t sweep_base_key(const SpotMarket& market,
                             const Scenario& scenario,
                             const EngineOptions& engine_options);

/// Total costs in dollars, one per run.
std::vector<double> costs_of(std::span<const RunResult> results);

/// Single-zone policy at `bid`, zones merged: 3 x num_experiments costs.
std::vector<double> merged_single_zone_costs(const SpotMarket& market,
                                             const Scenario& scenario,
                                             PolicyKind policy, Money bid);

/// Best-case redundancy-based policy (N = all zones) at `bid`: for each
/// chunk, the cheapest cost among `policies`.
std::vector<double> best_case_redundancy_costs(
    const SpotMarket& market, const Scenario& scenario,
    std::span<const PolicyKind> policies, Money bid);

/// Asserts invariants that must hold for every run (deadline met,
/// completion); returns the results' costs. Used by benches so a broken
/// guarantee cannot silently skew a table.
std::vector<double> checked_costs(std::span<const RunResult> results);

}  // namespace redspot
