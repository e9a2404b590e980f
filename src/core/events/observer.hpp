// Observer hooks over a running engine.
//
// EngineObserver is the one attachment surface for everything that watches
// a run without steering it: the event trace recorder, post-run auditing
// (fault/audit_observer.hpp), and future tooling. The engine fans out
//
//   on_event             every dispatched calendar event, before its handler
//   on_transition        every zone state-machine transition
//   on_billing           every LineItem the moment it is charged
//   on_checkpoint_commit every settled checkpoint write (incl. failures)
//   on_fault             every injected fault taking effect
//   on_termination       every instance teardown, with its cause
//   on_config_change     every reconfiguration, once it has applied
//   on_finish            the final RunResult, once, after totals settle
//
// Observers are notified in attachment order, synchronously, and must not
// mutate engine state. All hooks default to no-ops so an observer overrides
// only what it needs. The engine's own RunResult accounting (FaultStats
// included) is not an observer: an unobserved run fans out to nobody.
#pragma once

#include <cstddef>

#include "common/time.hpp"
#include "core/events/event.hpp"
#include "core/run_result.hpp"
#include "core/zone/zone_state.hpp"
#include "market/billing.hpp"

namespace redspot {

struct EngineConfig;

/// A settled checkpoint write, validated at completion. Progress publishes
/// to the store only on kCommitted; the other outcomes leave committed
/// progress untouched (kCorrupt after a rollback).
struct CheckpointCommit {
  enum class Outcome { kCommitted, kWriteFailed, kCorrupt };
  SimTime at = 0;
  std::size_t zone = 0;
  Duration progress = 0;  ///< compute time the write captured
  Outcome outcome = Outcome::kCommitted;
};

const char* to_string(CheckpointCommit::Outcome outcome);

/// One injected fault taking effect (see fault/fault_plan.hpp).
struct FaultEvent {
  enum class Kind {
    kCkptWriteFailure,
    kCkptCorruption,
    kRestartFailure,
    kRequestRejection,
    kNoticeDropped,
    kNoticeLate,
  };
  Kind kind = Kind::kCkptWriteFailure;
  SimTime at = 0;
  std::size_t zone = 0;
  Duration backoff = 0;  ///< retry backoff (kRequestRejection only)
};

const char* to_string(FaultEvent::Kind kind);

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  virtual void on_event(const Event& event) { (void)event; }
  virtual void on_transition(SimTime t, std::size_t zone, ZoneState from,
                             ZoneState to) {
    (void)t, (void)zone, (void)from, (void)to;
  }
  virtual void on_billing(const LineItem& item) { (void)item; }
  virtual void on_checkpoint_commit(const CheckpointCommit& commit) {
    (void)commit;
  }
  virtual void on_fault(const FaultEvent& fault) { (void)fault; }
  /// A zone's instance (or its pending request) went away at `t`: EC2 took
  /// it (kOutOfBid) or the engine released it (kUser). Fires after the
  /// teardown's line items and its transition to kDown.
  virtual void on_termination(SimTime t, std::size_t zone,
                              TerminationCause cause) {
    (void)t, (void)zone, (void)cause;
  }
  /// A strategy reconfiguration applied at `t`; `config` is the new one.
  virtual void on_config_change(SimTime t, const EngineConfig& config) {
    (void)t, (void)config;
  }
  virtual void on_finish(const RunResult& result) { (void)result; }
};

}  // namespace redspot
