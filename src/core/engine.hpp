// The scheduling engine — Algorithm 1 of the paper, event-driven.
//
// One Engine instance simulates one experiment run: a time-constrained HPC
// application executing on the spot market under a (possibly adaptive)
// strategy, with exact EC2 billing, queue delays, checkpoint/restart costs,
// and the deadline guarantee (switch to on-demand when the remaining slack
// can no longer absorb a checkpoint + restart + remaining compute).
//
// The engine is a thin orchestrator over four modules (see DESIGN.md §3):
//
//   core/events/          EventQueue — the typed (time, seq)-FIFO calendar
//                         of (kind, zone) entries every handler schedules
//                         into, dispatched back through on_queue_event —
//                         plus the EngineObserver hook layer (add_observer).
//   core/zone/            ZoneMachine — per-zone state machine
//                         (kDown/kWaiting/kQueued/kRestarting/kRunning/
//                         kCheckpointing/kStopped) with checked transitions
//                         and per-zone progress accounting.
//   core/billing_ledger/  ZoneBilling — EC2 charging rules + billed
//                         up-time + live LineItem emission to observers.
//   core/deadline/        DeadlineMonitor — the margin
//                         M(t) = (deadline - t) - (C - P_c) - t_r[P_c>0] - t_c
//                         and the on-demand switchover trigger, re-armed on
//                         every checkpoint commit (P_c is monotone, so the
//                         trigger instant is exact between commits).
//
// The engine itself keeps only the cross-module choreography: Algorithm 1's
// handlers (price ticks, instance lifecycle, cycle boundaries, completion)
// and the CheckpointCoordinator for the single write that may be in flight.
// Everything that merely watches a run — run validation
// (fault/audit_observer.hpp), the event-trace recorder — attaches through
// EngineObserver rather than bespoke hooks; the engine is the one place
// that fans events out to observers.
//
// The engine is also the one owner of decision-path state. Policies read
// S_min (min_observed_price) and E[Tu] (expected_uptime) through
// EngineView and keep no models: every zone's Markov model lives in one
// batch::ZoneModelPool, the engine's own or its batch group's
// (join_group).
//
// Reserving t_c in the margin lets the engine take one final checkpoint of
// the leading zone at the switch instant, capturing speculative progress
// without risking the deadline even if that zone dies mid-checkpoint.
// Under fault injection (EngineOptions::faults) P_c stays monotone because
// every commit is validated before publication: a failed or corrupt write
// leaves latest_progress() untouched (corrupt ones are rolled back via
// CheckpointStore::invalidate_latest) and re-arms the deadline trigger, so
// the reserved t_c still bounds the damage of the one write that can be in
// flight when the margin runs out — see DESIGN.md §7 for the argument.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "ckpt/store.hpp"
#include "common/check.hpp"
#include "common/random.hpp"
#include "core/batch/model_pool.hpp"
#include "core/billing_ledger/zone_billing.hpp"
#include "core/ckpt_coordinator.hpp"
#include "core/deadline/deadline_monitor.hpp"
#include "core/events/event_queue.hpp"
#include "core/events/observer.hpp"
#include "core/policy.hpp"
#include "core/run_result.hpp"
#include "core/strategy.hpp"
#include "core/zone/zone_machine.hpp"
#include "fault/fault_injector.hpp"
#include "market/regime.hpp"
#include "market/spot_market.hpp"

namespace redspot {

struct EngineOptions {
  /// Injected failure classes the paper assumes away (see fault/). The
  /// default all-zero plan is a strict no-op: runs reproduce the
  /// fault-free engine bit-for-bit.
  FaultPlan faults;
  /// The market rule set (market/regime.hpp): billing granularity,
  /// refund rule and termination-notice lead time. The default classic-2012
  /// regime reproduces the pre-regime engine bit-for-bit; the Appendix-A
  /// notice what-if is that regime with `rebalance_notice` set.
  MarketRegime regime;
};

/// Folds every result-affecting EngineOptions field into `h`. Shared by
/// EnsembleSpec::spec_hash and exp/sweep's journal keys so the same
/// options always fingerprint the same way.
class HashStream;
void hash_engine_options(HashStream& h, const EngineOptions& options);

class Engine final : public EngineView,
                     private ZoneTransitionSink,
                     private EventSink {
 public:
  /// `market` and `strategy` must outlive the engine.
  Engine(const SpotMarket& market, Experiment experiment, Strategy& strategy,
         EngineOptions options = {});
  /// Handlers and pool_ point into the engine itself.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Attaches an observer to the run: it sees every calendar event, zone
  /// transition, billing line item, checkpoint settlement, injected fault,
  /// termination, reconfiguration, and the final result. Must be called
  /// before run(); the observer must outlive it. Observers are notified in
  /// attachment order. Observers are the only way to record a run.
  void add_observer(EngineObserver* observer);

  /// Runs the experiment to completion. Call once.
  RunResult run();

  // --- incremental stepping (core/batch lockstep driver) --------------------
  // run() is exactly begin(); while (!finished()) step_one(); finalize() —
  // a stepped run is byte-identical to a run() call. The batched sweep
  // engine uses this to interleave many engines in global time order.

  /// Arms the calendar (initial config, first price tick, deadline
  /// trigger). Call once, instead of run().
  void begin();
  /// True once the run has completed; step_one() must not be called again.
  bool finished() const { return done_; }
  /// Timestamp of the next calendar event (kNever only when finished).
  SimTime next_event_time() { return queue_.next_time(); }
  /// Dispatches exactly one calendar event.
  void step_one();
  /// Seals and returns the result; requires finished(). Call once.
  RunResult finalize();

  /// Joins a lockstep batch group: expected_uptime() reads the group's
  /// per-zone models instead of this engine's own pool. The answers are
  /// bit-identical either way (see core/batch/model_pool.hpp). `pool` must
  /// outlive the run. Call before begin()/run().
  void join_group(batch::ZoneModelPool& pool) { pool_ = &pool; }

  // --- EngineView ----------------------------------------------------------
  SimTime now() const override { return queue_.now(); }
  const Experiment& experiment() const override { return experiment_; }
  const SpotMarket& market() const override { return *market_; }
  Money bid() const override { return config_.bid; }
  std::span<const std::size_t> zone_ids() const override {
    return config_.zones;
  }
  // Per-decision predicates: consulted several times per calendar event,
  // so they live in the header.
  bool zone_running(std::size_t zone) const override {
    return zone_at(zone).running();
  }
  bool any_zone_running() const override {
    for (std::size_t z : config_.zones)
      if (zone_running(z)) return true;
    return false;
  }
  Money price(std::size_t zone) const override {
    return market_->spot_price(zone, now());
  }
  Money previous_price(std::size_t zone) const override;
  PriceView history(std::size_t zone) const override;
  Money min_observed_price(std::size_t zone) const override;
  Duration expected_uptime(std::size_t zone) const override {
    return pool_->expected_uptime(zone, history(zone), price(zone), bid());
  }
  Duration committed_progress() const override {
    return store_.latest_progress();
  }
  Duration zone_progress(std::size_t zone) const override;
  Duration leading_progress() const override;
  SimTime leading_compute_since() const override;
  SimTime billing_cycle_end(std::size_t zone) const override {
    return billing_.cycle_end(zone);
  }
  const MarketRegime& regime() const override { return options_.regime; }

 private:
  // --- event dispatch ------------------------------------------------------
  /// EventSink: every calendar entry lands here. Observers see it first
  /// (on_event), then it runs the fixed handler for its kind — the switch
  /// covers every EventKind with no default, so -Wswitch rejects a kind
  /// without a handler.
  void on_queue_event(const Event& event) override;

  // --- event handlers (zone/engine_lifecycle.cpp unless noted) -------------
  void on_price_tick();
  void on_instance_ready(std::size_t zone);
  void on_restart_done(std::size_t zone);
  void on_scheduled_checkpoint();   // engine_checkpointing.cpp
  void on_checkpoint_done();        // engine_checkpointing.cpp
  void on_cycle_boundary(std::size_t zone);  // billing_ledger/engine_cycle_hooks.cpp
  void on_pre_boundary(std::size_t zone);    // billing_ledger/engine_cycle_hooks.cpp
  void on_deadline_trigger();       // deadline/engine_switchover.cpp
  void on_zone_completion(std::size_t zone);
  /// The termination notice arrives: flips the zone to kRebalanceWarned
  /// and, when the remaining warning fits one, schedules the emergency
  /// checkpoint.
  void on_rebalance_notice(std::size_t zone);
  /// The notice-driven write timed to end at the kill instant, unless a
  /// write is in flight or the committed progress already covers it.
  void on_emergency_checkpoint(std::size_t zone);
  void on_doom(std::size_t zone);
  /// Announces `zone`'s out-of-bid kill at a price tick: fixes the kill
  /// instant (kDoom) and schedules the notice, injecting dropped/late
  /// notices when the fault plan says so.
  void deliver_notice(std::size_t zone);

  // --- actions -------------------------------------------------------------
  void apply_initial_config();
  void request_instance(std::size_t zone);
  void start_computing(std::size_t zone, Duration progress_base);
  void terminate_out_of_bid(std::size_t zone);
  void user_terminate(std::size_t zone, bool at_boundary);
  void reconcile();
  bool policy_checkpoint_allowed() const;     // engine_checkpointing.cpp
  void reschedule_policy_checkpoint();        // engine_checkpointing.cpp
  void reschedule_deadline_trigger();         // deadline/engine_switchover.cpp
  void begin_switch_to_on_demand();           // deadline/engine_switchover.cpp
  void complete_on_demand_switch();           // deadline/engine_switchover.cpp
  void finish(SimTime at, bool completed);
  void consult_strategy(DecisionPoint point);           // engine_reconfigure.cpp
  bool config_is_non_disruptive(const EngineConfig& next) const;
  void apply_config(const EngineConfig& next, bool at_boundary_of,
                    std::size_t boundary_zone);

  // --- checkpoint settlement (engine_checkpointing.cpp) --------------------
  /// Finalizes the in-flight write: validates it against the injected
  /// fault plan and commits on success. Returns false when the write
  /// failed or was rolled back as corrupt (committed progress unchanged).
  bool commit_in_flight_checkpoint();
  /// Settles any write in flight on `zone` before its instance goes away:
  /// commits when the write had time to finish, aborts (and re-arms the
  /// deadline trigger) when it was cut off. No-op otherwise.
  void settle_zone_checkpoint(std::size_t zone);
  void start_checkpoint(std::optional<std::size_t> target);

  // --- helpers -------------------------------------------------------------
  ZoneMachine& zone_at(std::size_t zone) {
    REDSPOT_CHECK(zone < zones_.size());
    return zones_[zone];
  }
  const ZoneMachine& zone_at(std::size_t zone) const {
    REDSPOT_CHECK(zone < zones_.size());
    return zones_[zone];
  }
  bool any_zone_active() const {
    for (std::size_t z : config_.zones)
      if (zone_at(z).active()) return true;
    return false;
  }
  std::optional<std::size_t> leading_zone() const;  ///< best kRunning zone

  // --- observer fan-out ----------------------------------------------------
  void on_zone_transition(std::size_t zone, ZoneState from,
                          ZoneState to) override;
  void notify_fault(FaultEvent::Kind kind, std::size_t zone,
                    Duration backoff = 0);
  void notify_commit(const CheckpointCommit& commit);
  void notify_termination(std::size_t zone, TerminationCause cause);

  const SpotMarket* market_;
  Experiment experiment_;
  Strategy* strategy_;
  EngineOptions options_;
  /// The decision path's Markov models: own_pool_ unless join_group()
  /// points this at the group's. Mutable state behind a const view; the
  /// answers are pure functions of (zone, now, bid).
  batch::ZoneModelPool own_pool_;
  batch::ZoneModelPool* pool_ = &own_pool_;

  EventQueue queue_;
  Rng queue_rng_;
  FaultInjector injector_;
  CheckpointStore store_;
  ZoneBilling billing_;
  EngineConfig config_;
  std::optional<EngineConfig> pending_config_;

  std::vector<ZoneMachine> zones_;  ///< indexed by GLOBAL zone id

  CheckpointCoordinator coord_;  ///< the at-most-one in-flight write
  DeadlineMonitor monitor_;      ///< declared after queue_ (references it)

  EventId scheduled_ckpt_event_ = 0;
  EventId tick_event_ = 0;

  bool on_demand_phase_ = false;
  bool done_ = false;
  bool ran_ = false;

  RunResult result_;
  std::vector<EngineObserver*> observers_;  ///< attached ones only
};

/// Cost of the naive on-demand baseline: run C + nothing else at the fixed
/// rate, charged per started hour ($48 for the paper's 20 h experiment).
RunResult run_on_demand_baseline(const Experiment& experiment, Money rate);

/// Regime-aware baseline: per-second regimes prorate instead of rounding
/// up to started hours. The classic regime matches the overload above.
RunResult run_on_demand_baseline(const Experiment& experiment, Money rate,
                                 const MarketRegime& regime);

}  // namespace redspot
