// Shared helpers for the redspot test suite: hand-built price traces with
// exact shapes, markets with deterministic queue delays, engine-run
// shortcuts, and an observer logging what a run did.
#pragma once

#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/events/observer.hpp"
#include "core/policy.hpp"
#include "core/strategy.hpp"
#include "market/spot_market.hpp"
#include "trace/zone_traces.hpp"

namespace redspot::testing {

/// A one-zone series holding `price` for `steps` samples from t = 0.
inline PriceSeries constant_series(double price, std::size_t steps,
                                   SimTime start = 0) {
  return PriceSeries(start, kPriceStep,
                     std::vector<Money>(steps, Money::dollars(price)));
}

/// Builds a series from (price, hold_steps) segments.
inline PriceSeries step_series(
    std::initializer_list<std::pair<double, std::size_t>> segments,
    SimTime start = 0) {
  std::vector<Money> samples;
  for (const auto& [price, steps] : segments) {
    samples.insert(samples.end(), steps, Money::dollars(price));
  }
  return PriceSeries(start, kPriceStep, std::move(samples));
}

/// One-zone trace set.
inline ZoneTraceSet single_zone(PriceSeries series) {
  std::vector<PriceSeries> v;
  v.push_back(std::move(series));
  return ZoneTraceSet({"test-zone"}, std::move(v));
}

/// Multi-zone trace set from aligned series.
inline ZoneTraceSet zones(std::vector<PriceSeries> series) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < series.size(); ++i) {
    // Built with += (not "z" + to_string) to dodge a GCC 12 -Wrestrict
    // false positive in the inlined operator+(const char*, string&&).
    std::string name("z");
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return ZoneTraceSet(std::move(names), std::move(series));
}

/// Market with a FIXED queue delay (default 0 — instances materialize
/// instantly, which makes hand-computed billing exact).
inline SpotMarket make_market(ZoneTraceSet traces, Duration queue_delay = 0) {
  return SpotMarket(std::move(traces), cc2_instance(),
                    QueueDelayModel(QueueDelayParams::fixed(queue_delay)));
}

/// Logs the observer hooks engine tests assert on, in firing order.
struct RunLog final : EngineObserver {
  struct Transition {
    SimTime t;
    std::size_t zone;
    ZoneState from;
    ZoneState to;
  };
  struct Termination {
    SimTime t;
    std::size_t zone;
    TerminationCause cause;
  };

  std::vector<Transition> transitions;
  std::vector<LineItem> items;
  std::vector<CheckpointCommit> commits;
  std::vector<Termination> terminations;
  std::vector<SimTime> config_changes;

  void on_transition(SimTime t, std::size_t zone, ZoneState from,
                     ZoneState to) override {
    transitions.push_back(Transition{t, zone, from, to});
  }
  void on_billing(const LineItem& item) override { items.push_back(item); }
  void on_checkpoint_commit(const CheckpointCommit& commit) override {
    commits.push_back(commit);
  }
  void on_termination(SimTime t, std::size_t zone,
                      TerminationCause cause) override {
    terminations.push_back(Termination{t, zone, cause});
  }
  void on_config_change(SimTime t, const EngineConfig&) override {
    config_changes.push_back(t);
  }

  /// First instant any zone entered `to` (kNever when none did).
  SimTime first_entry(ZoneState to) const {
    for (const Transition& tr : transitions)
      if (tr.to == to) return tr.t;
    return kNever;
  }
  /// First instant `zone` entered `to` (kNever when it never did).
  SimTime first_entry(ZoneState to, std::size_t zone) const {
    for (const Transition& tr : transitions)
      if (tr.to == to && tr.zone == zone) return tr.t;
    return kNever;
  }
  /// Sum of every line item charged.
  Money billed() const {
    Money sum;
    for (const LineItem& item : items) sum += item.amount;
    return sum;
  }
};

/// Runs one fixed-config experiment and returns the result; `observer`
/// (when given) is attached for the run.
inline RunResult run_fixed(const SpotMarket& market,
                           const Experiment& experiment, PolicyKind policy,
                           Money bid, std::vector<std::size_t> zone_ids,
                           EngineOptions options = {},
                           EngineObserver* observer = nullptr) {
  FixedStrategy strategy(bid, std::move(zone_ids), make_policy(policy));
  Engine engine(market, experiment, strategy, options);
  if (observer != nullptr) engine.add_observer(observer);
  return engine.run();
}

/// A small experiment: C hours of compute, slack fraction, t_c = t_r.
inline Experiment small_experiment(double compute_hours, double slack_frac,
                                   Duration tc, SimTime start = 0) {
  Experiment e;
  e.app = AppModel{"test-app", hours(compute_hours), 1, 8};
  e.costs = CheckpointCosts{tc, tc};
  e.start = start;
  e.deadline = hours(compute_hours * (1.0 + slack_frac));
  e.history_span = 2 * kHour;
  e.validate();
  return e;
}

}  // namespace redspot::testing
