// Ablation A4 (Appendix A what-if): what would a termination notice be
// worth? The paper argues Amazon will not offer one; this sweep quantifies
// what users would gain if it did — a notice >= t_c converts every
// abrupt termination into a clean checkpoint. The notice is the classic
// regime's MarketRegime::rebalance_notice, the engine's one notice path.
//
// Usage: bench_ablation_notice [num_experiments]
#include <cstdio>
#include <cstdlib>

#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "market/spot_market.hpp"
#include "stats/descriptive.hpp"
#include "trace/synthetic.hpp"

using namespace redspot;

namespace {

double median_with_notice(const SpotMarket& market, const Scenario& scenario,
                          Duration notice) {
  std::vector<double> costs;
  for (std::size_t zone = 0; zone < market.num_zones(); ++zone) {
    for (std::size_t i = 0; i < scenario.num_experiments; ++i) {
      FixedStrategy strategy(Money::cents(81), {zone},
                             make_policy(PolicyKind::kMarkovDaly));
      EngineOptions options;
      options.regime.rebalance_notice = notice;
      Engine engine(market, scenario.experiment(i), strategy, options);
      const RunResult r = engine.run();
      REDSPOT_CHECK(r.met_deadline);
      costs.push_back(r.total_cost.to_double());
    }
  }
  return median(costs);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 40;
  SpotMarket market(paper_traces(42), cc2_instance(), QueueDelayModel());

  std::printf("== Ablation A4 — termination-notice what-if (Appendix A) ==\n");
  std::printf("Single-zone Markov-Daly at $0.81, high-volatility window, "
              "Tl=15%%; median cost per instance.\n\n");
  std::printf("%10s %14s %14s\n", "notice", "tc=300s", "tc=900s");
  for (Duration notice : {Duration{0}, Duration{120}, Duration{300},
                          Duration{900}, Duration{1800}}) {
    const Scenario s300{VolatilityWindow::kHigh, 0.15, 300, n};
    const Scenario s900{VolatilityWindow::kHigh, 0.15, 900, n};
    std::printf("%10s %14.2f %14.2f\n", format_duration(notice).c_str(),
                median_with_notice(market, s300, notice),
                median_with_notice(market, s900, notice));
  }
  std::printf("\nA notice below t_c cannot fit a checkpoint (the paper's "
              "point); at or above t_c every failure commits its work.\n");
  return 0;
}
