// Declarative fault model for the scheduling engine.
//
// The paper (Section 5) idealizes everything outside the spot price process:
// the on-demand I/O server never fails, every spot request is eventually
// fulfilled, and terminations are either abrupt or cleanly announced. Real
// deployments are dominated by exactly those failures (Voorsluys & Buyya,
// arXiv:1110.5969; Alourani & Kshemkalyani, arXiv:2003.13846). A FaultPlan
// declares per-class fault rates and outage windows; a FaultInjector draws
// deterministic fault decisions from it so every faulty run is replayable.
//
// An all-zero plan is a strict no-op: the engine consults the injector only
// through queries that short-circuit without consuming randomness when the
// corresponding rate is zero, so disabled-fault runs reproduce the seed
// benchmarks bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace redspot {

/// A window [start, end) during which the checkpoint store (the on-demand
/// I/O server) is unreachable: no checkpoint write can commit.
struct StoreOutage {
  SimTime start = 0;
  SimTime end = 0;
};

/// Exponential backoff with multiplicative jitter for retried spot
/// requests: attempt k (1-based) waits base * 2^(k-1), capped at `cap`,
/// stretched by up to `jitter` of itself (uniform), so synchronized
/// rejections do not resubmit in lock-step.
struct BackoffPolicy {
  Duration base = 30;
  Duration cap = 10 * kMinute;
  double jitter = 0.5;
};

/// Delay before attempt k (1-based) under `policy`: base * 2^(k-1), capped
/// at `cap`, stretched by `jitter_draw` (uniform in [0, 1)) times the
/// policy's jitter fraction of itself. Pure — the caller supplies the
/// random draw — so the same policy shape serves both simulated time
/// (FaultInjector, seconds) and wall-clock time (fabric worker reconnects,
/// milliseconds).
Duration backoff_delay(const BackoffPolicy& policy, int attempt,
                       double jitter_draw);

/// Per-class fault rates. Every rate is a per-event probability in [0, 1];
/// zero disables the class entirely (no RNG is consumed for it).
struct FaultPlan {
  /// A finished checkpoint write reports failure; nothing commits.
  double ckpt_write_failure_rate = 0.0;
  /// A finished checkpoint write reports success but the data is bad; the
  /// store's post-write validation catches it and rolls the commit back.
  double ckpt_corruption_rate = 0.0;
  /// A completed restart/load fails; the zone retries the load (paying
  /// t_r again) from the newest verified checkpoint.
  double restart_failure_rate = 0.0;
  /// A spot request reaching the front of the queue is rejected (EC2
  /// "insufficient capacity"); retried with exponential backoff.
  double request_rejection_rate = 0.0;
  /// A termination notice (MarketRegime::rebalance_notice > 0) never
  /// arrives: the instance dies abruptly, as in the 2013 market.
  double notice_drop_rate = 0.0;
  /// A termination notice arrives late, shrinking the usable warning; the
  /// kill instant does not move.
  double notice_late_rate = 0.0;
  /// Maximum notice delivery lag when a notice is late.
  Duration notice_max_lag = 2 * kMinute;
  /// Windows during which no checkpoint can commit (writes fail
  /// deterministically, independent of ckpt_write_failure_rate).
  std::vector<StoreOutage> store_outages;
  BackoffPolicy backoff;

  /// True when any fault class can fire.
  bool enabled() const;

  /// Throws CheckFailure on malformed plans (rates outside [0, 1],
  /// inverted outage windows, nonsense backoff).
  void validate() const;
};

}  // namespace redspot
