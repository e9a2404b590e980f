// Deterministic, seeded fault injection.
//
// Each fault class draws from its own RNG stream (derived from the
// experiment seed), so enabling one class never perturbs the decision
// sequence of another — a run with 5% checkpoint failures sees the same
// request rejections whether or not corruption is also enabled. Queries
// whose rate is zero return false without consuming randomness, which is
// what makes an all-zero FaultPlan a bit-for-bit no-op.
#pragma once

#include <cstdint>

#include "common/random.hpp"
#include "common/time.hpp"
#include "fault/fault_plan.hpp"

namespace redspot {

class FaultInjector {
 public:
  /// Validates and captures `plan`; decision streams derive from `seed`.
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  bool enabled() const { return enabled_; }
  const FaultPlan& plan() const { return plan_; }

  /// True when the store cannot accept a commit at `t` (outage window).
  bool store_unreachable(SimTime t) const;

  /// Decides the fate of a checkpoint write finishing at `t`: failure
  /// (outage or random write error). Consumes one draw iff the rate > 0.
  bool checkpoint_write_fails(SimTime t);

  /// Decides whether a (non-failed) checkpoint write silently corrupted.
  bool checkpoint_corrupts();

  /// Decides whether a completed restart/load fails.
  bool restart_fails();

  /// Decides whether a spot request is rejected at fulfilment time.
  bool request_rejected();

  /// Fate of a termination notice with `notice` seconds of nominal
  /// warning: dropped entirely, or delivered `lag` late — 0 when on time,
  /// otherwise in [1, min(notice, max_lag)]. A dropped notice draws no lag.
  struct NoticeDelivery {
    bool dropped = false;
    Duration lag = 0;
  };
  NoticeDelivery notice_delivery(Duration notice);

  /// Backoff before retry `attempt` (1-based) of a rejected spot request:
  /// exponential in the attempt, capped, with multiplicative jitter.
  Duration backoff_delay(int attempt);

 private:
  FaultPlan plan_;
  bool enabled_;
  Rng ckpt_rng_;
  Rng corrupt_rng_;
  Rng restart_rng_;
  Rng request_rng_;
  Rng notice_rng_;
  Rng backoff_rng_;
};

}  // namespace redspot
