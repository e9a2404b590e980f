// Result of one simulated experiment run.
#pragma once

#include <vector>

#include "ckpt/store.hpp"
#include "common/money.hpp"
#include "common/time.hpp"

namespace redspot {

/// Injected-fault events observed during one run (all zero when the
/// FaultPlan is disabled).
struct FaultStats {
  int ckpt_write_failures = 0;  ///< writes that failed (incl. outages)
  int ckpt_corruptions = 0;     ///< writes rolled back by validation
  int restart_failures = 0;     ///< loads that failed and were retried
  int request_rejections = 0;   ///< spot requests rejected + backed off
  int notices_dropped = 0;      ///< termination notices lost
  int notices_late = 0;         ///< termination notices delivered late
  Duration backoff_total = 0;   ///< total retry backoff waited

  bool any() const {
    return ckpt_write_failures || ckpt_corruptions || restart_failures ||
           request_rejections || notices_dropped || notices_late;
  }
};

/// Everything the experiment harness needs from one run.
struct RunResult {
  // --- cost ---------------------------------------------------------------
  Money total_cost;          ///< the paper's "Cost per Instance"
  Money spot_cost;
  Money on_demand_cost;

  // --- outcome ------------------------------------------------------------
  bool completed = false;
  bool met_deadline = false;
  SimTime finish_time = 0;   ///< absolute completion instant

  // --- accounting ---------------------------------------------------------
  int checkpoints_committed = 0;
  int restarts = 0;                ///< restart operations completed
  int out_of_bid_terminations = 0;
  int full_outages = 0;            ///< transitions to "no zone active"
  Duration spot_instance_seconds = 0;  ///< sum over zones of billed up-time
  Duration on_demand_seconds = 0;
  Duration queue_delay_total = 0;
  bool switched_to_on_demand = false;
  int config_changes = 0;          ///< Adaptive permutation switches

  // --- robustness ----------------------------------------------------------
  FaultStats faults;               ///< injected-fault events survived
  Duration committed_progress = 0; ///< final verified checkpoint progress
  /// Full store sequence, including entries invalidated by validation —
  /// lets RunValidator audit progress monotonicity and rollbacks.
  std::vector<Checkpoint> checkpoint_log;
};

}  // namespace redspot
