// Run auditing as an engine observer.
//
// Attach an AuditObserver before Engine::run() and the run is audited
// twice over. Live, as the hooks fire:
//
//   * time never goes backwards across events, transitions, checkpoint
//     settlements, terminations and reconfigurations;
//   * every line item has a known kind and a span inside its cycle;
//   * under the classic refund rule, an out-of-bid teardown charges no
//     partial hour (EC2 forfeits the cycle it cut short).
//
// And once the result settles: RunValidator's invariants, plus the line
// items summing exactly to spot_cost and on_demand_cost. A violation throws
// CheckFailure out of run(), so a broken guarantee can never silently skew
// a table or figure.
//
//   AuditObserver audit(experiment, market.on_demand_rate());
//   engine.add_observer(&audit);
//   RunResult r = engine.run();  // throws if the run is unsound
//
// The live checks keep per-run state: attach one AuditObserver per engine
// that steps concurrently (e.g. one per batched lane). It resets at
// on_finish, so runs one after another may share it.
#pragma once

#include <vector>

#include "core/events/observer.hpp"
#include "fault/run_validator.hpp"

namespace redspot {

class AuditObserver final : public EngineObserver {
 public:
  AuditObserver(Experiment experiment, Money on_demand_rate,
                AuditMode mode = AuditMode::kFull,
                MarketRegime regime = MarketRegime::classic_2012());

  void on_event(const Event& event) override { advance(event.time); }
  void on_transition(SimTime t, std::size_t, ZoneState, ZoneState) override {
    advance(t);
  }
  void on_billing(const LineItem& item) override;
  void on_checkpoint_commit(const CheckpointCommit& commit) override {
    advance(commit.at);
  }
  void on_termination(SimTime t, std::size_t zone,
                      TerminationCause cause) override;
  void on_config_change(SimTime t, const EngineConfig&) override {
    advance(t);
  }
  void on_finish(const RunResult& result) override;

 private:
  /// Throws unless `t` is at or after every instant seen so far.
  void advance(SimTime t);
  void reset();

  // start_ and provider_forfeits_ are read from the constructor arguments
  // before validator_ takes them over.
  SimTime start_;
  /// Classic refund rule: provider kills must not bill the cut cycle.
  bool provider_forfeits_;
  RunValidator validator_;
  AuditMode mode_;

  SimTime last_;
  Money spot_;
  Money on_demand_;
  /// Per zone, the charged_at of a kSpotUserPartial billed since the
  /// zone's last teardown (kNever when none).
  std::vector<SimTime> partial_at_;
};

}  // namespace redspot
