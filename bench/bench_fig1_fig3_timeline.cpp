// Figures 1 and 3 reproduction: annotated timelines of spot price
// movements, instance state transitions, checkpoint/restart events and net
// progress — Figure 1 with a Periodic schedule, Figure 3 with the Rising
// Edge policy.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "market/spot_market.hpp"
#include "trace/calendar.hpp"
#include "trace/synthetic.hpp"

using namespace redspot;

namespace {

/// Collects the figure's annotations as the run unfolds: zone state
/// transitions, settled checkpoint writes and instance terminations.
class PanelObserver final : public EngineObserver {
 public:
  struct Entry {
    SimTime time;
    std::string text;
  };

  void on_transition(SimTime t, std::size_t zone, ZoneState from,
                     ZoneState to) override {
    std::string text = zone_label(zone);
    text += ' ';
    text += to_string(from);
    text += "->";
    text += to_string(to);
    add(t, std::move(text));
  }
  void on_checkpoint_commit(const CheckpointCommit& c) override {
    add(c.at, std::string("checkpoint ") + to_string(c.outcome) +
                  " progress=" + format_duration(c.progress));
  }
  void on_termination(SimTime t, std::size_t zone,
                      TerminationCause cause) override {
    std::string text = zone_label(zone);
    text += cause == TerminationCause::kOutOfBid ? " out-of-bid"
                                                 : " user-terminated";
    add(t, std::move(text));
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  // Built with += (not "z" + to_string) to dodge a GCC 12 -Wrestrict
  // false positive in the inlined operator+(const char*, string&&).
  static std::string zone_label(std::size_t zone) {
    std::string label("z");
    label += std::to_string(zone);
    return label;
  }

  void add(SimTime t, std::string text) {
    entries_.push_back(Entry{t, std::move(text)});
  }

  std::vector<Entry> entries_;
};

void run_timeline(const SpotMarket& market, PolicyKind policy,
                  const char* title) {
  // A chunk of the high-volatility window gives the figure its
  // terminations and restarts.
  Scenario scenario{VolatilityWindow::kHigh, 0.50, 300, 80};
  const Experiment experiment = scenario.experiment(12);
  const std::size_t zone = 2;
  const Money bid = Money::cents(81);

  FixedStrategy strategy(bid, {zone}, make_policy(policy));
  Engine engine(market, experiment, strategy);
  PanelObserver panel;
  engine.add_observer(&panel);
  const RunResult result = engine.run();

  std::printf("== %s — policy %s, zone %zu, bid %s ==\n", title,
              to_string(policy).c_str(), zone, bid.str().c_str());
  std::printf("C=%s D=%s t_c=t_r=%s\n",
              format_duration(experiment.app.total_compute).c_str(),
              format_duration(experiment.deadline).c_str(),
              format_duration(experiment.costs.checkpoint).c_str());

  // Price movements around each event give the figure its (a) panel.
  SimTime last_price_print = 0;
  for (const PanelObserver::Entry& e : panel.entries()) {
    const Money s = market.spot_price(zone, std::min(
        e.time, market.trace_end() - 1));
    if (e.time != last_price_print) {
      std::printf("%s  S=%-7s", format_time(e.time).c_str(), s.str().c_str());
      last_price_print = e.time;
    } else {
      std::printf("%s          ", std::string(18, ' ').c_str());
    }
    std::printf("  %s\n", e.text.c_str());
  }
  std::printf(
      "total=%s spot=%s od=%s ckpts=%d restarts=%d out-of-bid=%d %s\n\n",
      result.total_cost.str().c_str(), result.spot_cost.str().c_str(),
      result.on_demand_cost.str().c_str(), result.checkpoints_committed,
      result.restarts, result.out_of_bid_terminations,
      result.met_deadline ? "met deadline" : "MISSED DEADLINE");
}

}  // namespace

int main() {
  SpotMarket market(paper_traces(42), cc2_instance(), QueueDelayModel());
  run_timeline(market, PolicyKind::kPeriodic,
               "Figure 1 — spot price movements and state transitions");
  run_timeline(market, PolicyKind::kRisingEdge,
               "Figure 3 — Rising Edge checkpoint policy");
  return 0;
}
