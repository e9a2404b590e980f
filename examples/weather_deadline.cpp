// The paper's motivating scenario (Section 2.1): "finish the weather
// prediction for tomorrow before the evening newscast at 7pm."
//
// A 20-hour forecast job is submitted at 8pm the previous evening; the
// deadline is 7pm the next day (23 h away, i.e. 15% slack). This example
// walks the whole decision the paper automates: what would on-demand cost,
// what do the fixed policies do, and what does Adaptive choose — then
// prints the adaptive run's reconfigurations and checkpoints.
//
//   $ ./examples/weather_deadline [chunk-index]
#include <cstdio>
#include <cstdlib>

#include "app/application.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/engine.hpp"
#include "core/events/trace_recorder.hpp"
#include "exp/scenario.hpp"
#include "market/spot_market.hpp"
#include "trace/synthetic.hpp"

using namespace redspot;

int main(int argc, char** argv) {
  const std::size_t chunk =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 25;

  SpotMarket market(paper_traces(42), cc2_instance(), QueueDelayModel());

  // The weather preset: 20 h forecast, 128 tasks, 300 s checkpoints.
  const AppPreset& preset = weather_preset();
  Scenario scenario{VolatilityWindow::kHigh, 0.15,
                    preset.costs.checkpoint, 80};
  Experiment experiment = scenario.experiment(chunk);
  experiment.app = preset.model;
  experiment.costs = preset.costs;

  std::printf("Scenario: %s\n", preset.description.c_str());
  std::printf("Submitted with C = %s of compute, deadline in %s (slack %s)\n\n",
              format_duration(experiment.app.total_compute).c_str(),
              format_duration(experiment.deadline).c_str(),
              format_duration(experiment.slack()).c_str());

  const RunResult on_demand =
      run_on_demand_baseline(experiment, market.on_demand_rate());
  std::printf("%-28s %10s  (the naive answer)\n", "on-demand baseline",
              on_demand.total_cost.str().c_str());

  Money best_fixed = on_demand.total_cost;
  for (PolicyKind kind : {PolicyKind::kPeriodic, PolicyKind::kMarkovDaly}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
      std::vector<std::size_t> zones;
      for (std::size_t z = 0; z < n; ++z) zones.push_back(z);
      FixedStrategy strategy(Money::cents(81), zones, make_policy(kind));
      Engine engine(market, experiment, strategy);
      const RunResult r = engine.run();
      std::printf("%-28s %10s  finish %s before the newscast\n",
                  (to_string(kind) + " N=" + std::to_string(n)).c_str(),
                  r.total_cost.str().c_str(),
                  format_duration(experiment.deadline_time() -
                                  r.finish_time)
                      .c_str());
      best_fixed = std::min(best_fixed, r.total_cost);
    }
  }

  AdaptiveStrategy adaptive;
  Engine engine(market, experiment, adaptive);
  EventTraceRecorder trace;
  engine.add_observer(&trace);
  const RunResult r = engine.run();
  std::printf("%-28s %10s  finish %s before the newscast\n\n", "adaptive",
              r.total_cost.str().c_str(),
              format_duration(experiment.deadline_time() - r.finish_time)
                  .c_str());
  std::printf("adaptive vs on-demand: %.1fx cheaper; vs best fixed here: "
              "%+.0f%%\n\n",
              on_demand.total_cost.ratio(r.total_cost),
              100.0 * (r.total_cost.to_double() - best_fixed.to_double()) /
                  best_fixed.to_double());

  // The event trace's reconfiguration (K) and checkpoint (C) lines tell
  // the story of the run; src/core/events/trace_recorder.hpp has the format.
  std::printf("Adaptive's reconfigurations and checkpoints:\n");
  for (const std::string& line : trace.lines())
    if (line[0] == 'K' || line[0] == 'C') std::printf("%s\n", line.c_str());
  return 0;
}
