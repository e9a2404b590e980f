// Checkpoint-scheduling policy interface (Section 3.2).
//
// Algorithm 1 is generic in two functions — CheckpointCondition() and
// ScheduleNextCheckpoint() — and each policy of Section 4 is defined by
// them. The engine exposes its state to policies through EngineView, calls
// checkpoint_condition() after every price tick while an instance is
// executing, and calls schedule_next_checkpoint() after every checkpoint
// commit and restart (exactly the call sites of Algorithm 1).
//
// Two extra hooks support Large-bid (Section 7.2.2), which manually stops
// instances near the end of a billing hour: wants_pre_boundary_checks() /
// should_manual_stop() / should_resume().
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/money.hpp"
#include "common/time.hpp"
#include "core/experiment.hpp"
#include "market/regime.hpp"
#include "market/spot_market.hpp"

namespace redspot {

/// Read-only view of the engine state, as seen by a policy.
class EngineView {
 public:
  virtual ~EngineView() = default;

  virtual SimTime now() const = 0;
  virtual const Experiment& experiment() const = 0;
  virtual const SpotMarket& market() const = 0;

  /// Current bid B.
  virtual Money bid() const = 0;

  /// Global zone indices in use (N = zone_ids().size()).
  virtual std::span<const std::size_t> zone_ids() const = 0;

  /// True when `zone` (global index) is executing the application.
  virtual bool zone_running(std::size_t zone) const = 0;

  /// True when any zone is executing.
  virtual bool any_zone_running() const = 0;

  /// Spot price of `zone` right now.
  virtual Money price(std::size_t zone) const = 0;

  /// Spot price of `zone` one sampling step ago (clamped at trace start).
  virtual Money previous_price(std::size_t zone) const = 0;

  /// Trailing price history of `zone`: [now - history_span, now), as a
  /// non-owning view into the market trace. Valid only within the engine
  /// step that produced it — materialize() to keep it longer.
  virtual PriceView history(std::size_t zone) const = 0;

  /// Minimum spot price of `zone` over the trailing history (S_min in the
  /// Threshold policy).
  virtual Money min_observed_price(std::size_t zone) const = 0;

  /// E[Tu]: expected up-time of `zone` at its current price under the
  /// current bid, from a Markov chain fitted to history(zone) (Markov-Daly
  /// and Threshold). Equals expected_uptime(build_markov_model(history,
  /// ZoneModelPool::kMaxStates), price, bid) bit-for-bit; the engine
  /// answers it from incrementally slid models it owns.
  virtual Duration expected_uptime(std::size_t zone) const = 0;

  /// Committed (checkpointed) progress.
  virtual Duration committed_progress() const = 0;

  /// Current progress of one zone (frozen value while it checkpoints;
  /// checkpoint-base for inactive zones).
  virtual Duration zone_progress(std::size_t zone) const = 0;

  /// Progress of the furthest-ahead executing zone (== committed when
  /// nothing executes).
  virtual Duration leading_progress() const = 0;

  /// When the current compute segment began on the leading zone: the most
  /// recent of its restart completion / checkpoint completion. kNever when
  /// nothing executes. This is the Threshold policy's "execution time at B"
  /// reference point.
  virtual SimTime leading_compute_since() const = 0;

  /// End of the current billing cycle of `zone` (requires an open cycle).
  virtual SimTime billing_cycle_end(std::size_t zone) const = 0;

  /// The market rule set this run executes under. Policies consult it for
  /// billing-sensitive decisions (e.g. Large-bid's manual stop is
  /// pointless under per-second billing). Defaults to classic 2012.
  virtual const MarketRegime& regime() const { return MarketRegime::classic(); }
};

/// A checkpoint-scheduling policy.
class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// CheckpointCondition() — evaluated after each price tick while at least
  /// one zone executes and no checkpoint is in flight. Returning true
  /// starts a checkpoint immediately.
  virtual bool checkpoint_condition(const EngineView& view) = 0;

  /// ScheduleNextCheckpoint() — returns the absolute time of the next
  /// scheduled checkpoint, or kNever for purely reactive policies. Called
  /// after each checkpoint commit, each restart, and each config change.
  virtual SimTime schedule_next_checkpoint(const EngineView& view) = 0;

  /// Large-bid hooks. When wants_pre_boundary_checks() is true the engine
  /// consults should_manual_stop() at (cycle end - t_c) for every running
  /// zone; a true return checkpoints the zone and user-terminates it at the
  /// boundary. A stopped zone is re-requested once should_resume() is true
  /// (checked at price ticks).
  virtual bool wants_pre_boundary_checks() const { return false; }
  virtual bool should_manual_stop(const EngineView& view, std::size_t zone) {
    (void)view;
    (void)zone;
    return false;
  }
  virtual bool should_resume(const EngineView& view, std::size_t zone) {
    (void)view;
    (void)zone;
    return true;
  }
};

/// The fixed policies of the evaluation (Adaptive is a Strategy, not a
/// Policy — see core/adaptive/). The zoo entries after the paper's four
/// are appended so existing spec hashes keep their values.
enum class PolicyKind {
  kPeriodic,
  kMarkovDaly,
  kRisingEdge,
  kThreshold,
  kRandomizedBid,  ///< Bhuyan et al.: seeded bid draw + danger-band ckpts
  kIndexTrack,     ///< Shastri & Irwin: track the cheapest normalized lanes
};

std::string to_string(PolicyKind kind);

/// Instantiates a policy by kind with default parameters.
std::unique_ptr<Policy> make_policy(PolicyKind kind);

}  // namespace redspot
