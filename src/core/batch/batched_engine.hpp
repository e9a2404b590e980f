// BatchedSweepEngine: N sweep configs advanced in lockstep over one
// shared view of the price trace (DESIGN.md §14).
//
// The scalar sweep runs one Engine at a time, so every config re-walks the
// same trace, re-slides its own Markov models, and re-scans the same
// 2-day windows. The batched engine instead advances all N lanes in
// global event-time order, one instant at a time — a min over the lanes'
// next-event times finds the group's earliest event time, and every lane
// with an event at that instant drains its burst in lane order — so the
// group shares one ZoneModelPool: each per-zone model slides ONCE per tick
// for the whole group (windows are pure functions of (zone, now)), and its
// (state, alive) memo dedupes the closed-form solves across lanes and
// bids. S_min stays a per-lane scan of the 2-day window: Threshold reads
// it only on a rising edge, and a shared range-minimum index cost more to
// build than the scans it saved (DESIGN.md §14).
//
// Lanes attach to the pool through Engine::join_group; policies are
// stateless and see the shared state only through EngineView.
//
// Each lane is still a full scalar Engine stepped incrementally
// (begin/step_one/finalize), so billing anchors, zone-machine
// transitions, checkpoint coordination, and observers behave exactly as
// in a run() call — divergent per-lane control flow costs nothing in
// correctness. Bit-identity of the shared state is by construction: every
// shared value is a pure function of inputs that do not depend on which
// lane asks (see model_pool.hpp), so the batched sweep
// reproduces the scalar sweep's RunResults bit-for-bit for ANY lane
// interleaving. The time-ordered interleaving is a performance choice
// (models only slide forward), not a correctness requirement.
//
// Everything else a lane owns stays private to its Engine: the calendar,
// the queue-delay RNG and the FaultInjector are seeded from the lane's
// experiment, and no fault touches the prices the shared state reads, so
// faulted lanes batch like any other and any EngineOptions qualify.
//
// Dispatch rule: lanes are fixed policies (PolicyKind). Adaptive and
// large-bid are Strategies and run on the scalar Engine; exp/sweep.cpp and
// ensemble/shard_exec.cpp route by that alone.
#pragma once

#include <span>
#include <vector>

#include "core/engine.hpp"

namespace redspot::batch {

/// One lane of a batch group.
struct BatchConfig {
  Experiment experiment;
  PolicyKind policy = PolicyKind::kPeriodic;
  Money bid;
  std::vector<std::size_t> zones{0};
  /// Optional per-lane observer, attached before the lane begins (e.g. an
  /// AuditObserver); must outlive the run() call.
  EngineObserver* observer = nullptr;
};

class BatchedSweepEngine {
 public:
  /// `market` must outlive the engine. Every lane runs under `options`
  /// (any fault plan and regime), so a group is regime-homogeneous by
  /// construction. The engine is immutable after construction, so one
  /// instance serves many concurrent run() calls (one per sweep task).
  explicit BatchedSweepEngine(const SpotMarket& market,
                              EngineOptions options = {});

  /// Runs every lane to completion in lockstep. Returns one RunResult per
  /// lane, in lane order — each bit-identical to what a scalar
  /// Engine::run() of the same config produces. Thread-safe.
  std::vector<RunResult> run(std::span<const BatchConfig> configs) const;

 private:
  const SpotMarket* market_;
  EngineOptions options_;
};

}  // namespace redspot::batch
