// Fault-sensitivity sweep (robustness study): cost and deadline-miss rate
// for all six policies as per-class fault rates rise. Every run is audited
// by RunValidator inside the sweep harness, so a fault-handling bug that
// broke an accounting or deadline invariant would abort the table rather
// than skew it.
//
// The key claim: the on-demand fallback guarantee holds under every fault
// class, so the "miss" column stays zero — faults cost money, not
// deadlines.
//
// Usage: bench_fault_sensitivity [num_experiments] [tc_seconds]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "fault/fault_plan.hpp"
#include "market/spot_market.hpp"
#include "stats/descriptive.hpp"
#include "trace/synthetic.hpp"

using namespace redspot;

namespace {

struct PlanRow {
  std::string label;
  FaultPlan plan;
};

std::vector<PlanRow> fault_grid() {
  std::vector<PlanRow> rows;
  rows.push_back({"none", {}});
  {
    FaultPlan p;
    p.ckpt_write_failure_rate = 0.05;
    rows.push_back({"ckpt-fail 5%", p});
    p.ckpt_write_failure_rate = 0.25;
    rows.push_back({"ckpt-fail 25%", p});
  }
  {
    FaultPlan p;
    p.ckpt_corruption_rate = 0.10;
    rows.push_back({"ckpt-corrupt 10%", p});
  }
  {
    FaultPlan p;
    p.restart_failure_rate = 0.25;
    rows.push_back({"restart-fail 25%", p});
  }
  {
    FaultPlan p;
    p.request_rejection_rate = 0.10;
    rows.push_back({"reject 10%", p});
    p.request_rejection_rate = 0.40;
    rows.push_back({"reject 40%", p});
  }
  {
    FaultPlan p;
    p.notice_drop_rate = 0.5;
    rows.push_back({"notice-drop 50%", p});
  }
  {
    // A two-day store blackout anchored on the first experiment chunk
    // (chunks start at window_start + history_span): every checkpoint
    // write inside it fails, whatever the policy. Anchoring there keeps
    // the outage overlapping runs at any sweep size.
    FaultPlan p;
    const SimTime start = window_start(VolatilityWindow::kLow) + 2 * kDay;
    p.store_outages.push_back({start, start + 2 * kDay});
    rows.push_back({"store-outage 48h", p});
  }
  {
    FaultPlan p;
    p.ckpt_write_failure_rate = 0.2;
    p.ckpt_corruption_rate = 0.1;
    p.restart_failure_rate = 0.2;
    p.request_rejection_rate = 0.3;
    p.notice_drop_rate = 0.2;
    p.notice_late_rate = 0.3;
    rows.push_back({"all moderate", p});
  }
  return rows;
}

struct PolicyCell {
  std::string name;
  std::vector<RunResult> results;
};

std::vector<PolicyCell> run_policies(const SpotMarket& market,
                                     const Scenario& scenario,
                                     const EngineOptions& options) {
  constexpr PolicyKind kFixed[] = {PolicyKind::kThreshold,
                                   PolicyKind::kRisingEdge,
                                   PolicyKind::kPeriodic,
                                   PolicyKind::kMarkovDaly};
  std::vector<PolicyCell> cells;
  for (PolicyKind kind : kFixed) {
    PolicyRunSpec spec;
    spec.policy = kind;
    spec.bid = Money::cents(81);
    spec.zones = {0, 1, 2};
    cells.push_back(
        {to_string(kind), run_fixed_sweep(market, scenario, spec, options)});
  }
  cells.push_back({"large-bid", run_large_bid_sweep(market, scenario,
                                                    Money::cents(30), 0,
                                                    options)});
  cells.push_back(
      {"adaptive", run_adaptive_sweep(market, scenario, options)});
  return cells;
}

void print_cell(const std::string& plan_label, const PolicyCell& cell) {
  RunningStats cost;
  int misses = 0;
  long fault_events = 0;
  Duration backoff = 0;
  for (const RunResult& r : cell.results) {
    cost.add(r.total_cost.to_double());
    misses += r.met_deadline ? 0 : 1;
    const FaultStats& f = r.faults;
    fault_events += f.ckpt_write_failures + f.ckpt_corruptions +
                    f.restart_failures + f.request_rejections +
                    f.notices_dropped + f.notices_late;
    backoff += f.backoff_total;
  }
  std::printf("  %-18s %-12s $%7.2f  $%7.2f  %5d  %7ld  %8s\n",
              plan_label.c_str(), cell.name.c_str(), cost.mean(), cost.max(),
              misses, fault_events, format_duration(backoff).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t num_experiments =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 80;
  const Duration tc = argc > 2 ? std::strtoll(argv[2], nullptr, 10) : 300;

  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  const Scenario scenario{VolatilityWindow::kLow, 0.15, tc, num_experiments};

  std::printf("Fault sensitivity — %s, %zu experiments (RunValidator on "
              "every run)\n",
              scenario.label().c_str(), num_experiments);
  std::printf("  %-18s %-12s %8s  %8s  %5s  %7s  %8s\n", "faults", "policy",
              "mean", "max", "miss", "events", "backoff");
  for (const PlanRow& row : fault_grid()) {
    row.plan.validate();
    EngineOptions options;
    options.regime.rebalance_notice = 300;
    options.faults = row.plan;
    for (const PolicyCell& cell : run_policies(market, scenario, options))
      print_cell(row.label, cell);
  }
  return 0;
}
