// Post-run auditor.
//
// Every RunResult — fault-free or fault-injected — must satisfy a set of
// invariants that follow from the billing rules (Section 2.1) and the
// deadline guarantee (Algorithm 1): the run completed by the deadline or
// switched to on-demand, costs decompose exactly into spot and on-demand
// parts with on-demand billed at the regime's rate, and committed progress
// only ever reflects verified checkpoints. RunValidator re-derives each
// invariant from the result alone, so it also audits results replayed from
// a journal. The invariants that need the run as it happens — line items,
// time order, the out-of-bid refund — are AuditObserver's
// (fault/audit_observer.hpp), which wraps a RunValidator; the exp/ sweeps
// attach one to every run.
#pragma once

#include <string>
#include <vector>

#include "common/money.hpp"
#include "core/experiment.hpp"
#include "core/run_result.hpp"
#include "market/regime.hpp"

namespace redspot {

/// What kind of RunResult is being audited.
///
/// kFull audits a freshly simulated result, including the cross-checks
/// that re-derive counters from the recorded checkpoint log. kReplay
/// audits a compact result decoded from the run journal
/// (journal/run_record.hpp), which carries every scalar but not the
/// per-run logs — the log-derived cross-checks are skipped, everything
/// else (outcome consistency, counter signs, exact cost decomposition,
/// billing arithmetic) still holds and still gates acceptance of a
/// replayed record.
enum class AuditMode { kFull, kReplay };

/// Audits RunResults of one experiment configuration.
class RunValidator {
 public:
  /// `on_demand_rate` is the fallback rate the engine switched to (the
  /// market's on-demand price, $2.40/h in the paper). `regime` must match
  /// the EngineOptions the run executed under — the billing invariants
  /// (on-demand arithmetic, partial-cycle charges, the out-of-bid refund)
  /// are regime-dependent.
  RunValidator(Experiment experiment, Money on_demand_rate,
               MarketRegime regime = MarketRegime::classic_2012());

  /// Checks every invariant; returns one human-readable line per
  /// violation (empty = the run is sound). Never throws.
  std::vector<std::string> audit(const RunResult& r,
                                 AuditMode mode = AuditMode::kFull) const;

  /// Throws CheckFailure listing all violations when audit() is non-empty.
  void check(const RunResult& r, AuditMode mode = AuditMode::kFull) const;

 private:
  Experiment experiment_;
  Money on_demand_rate_;
  MarketRegime regime_;
};

}  // namespace redspot
