// Index-tracking policy (after Shastri & Irwin's Cloud Index Tracking,
// PAPERS.md): treat the configured lanes as a market index and keep the
// application on the `target_active` lanes whose price is currently
// lowest, rebalancing at hour granularity.
//
// The mechanics reuse the Large-bid manual-stop hooks: at each
// pre-boundary check a running lane that has fallen out of the index is
// checkpointed and user-terminated at its boundary; a stopped lane is
// re-requested as soon as it re-enters the index.
#pragma once

#include <cstddef>

#include "core/policy.hpp"

namespace redspot {

class IndexTrackPolicy final : public Policy {
 public:
  /// Keeps the `target_active` cheapest lanes running.
  explicit IndexTrackPolicy(std::size_t target_active = 1)
      : target_active_(target_active) {}

  std::string name() const override { return "index-track"; }
  bool checkpoint_condition(const EngineView&) override { return false; }
  SimTime schedule_next_checkpoint(const EngineView& view) override;

  bool wants_pre_boundary_checks() const override { return true; }
  bool should_manual_stop(const EngineView& view, std::size_t zone) override;
  bool should_resume(const EngineView& view, std::size_t zone) override;

  /// True when `zone` is among the target_active cheapest lanes of the
  /// view's zone set right now (ties break to the lower zone index, so
  /// the index is always exactly determined).
  bool in_index(const EngineView& view, std::size_t zone) const;

 private:
  std::size_t target_active_;
};

}  // namespace redspot
