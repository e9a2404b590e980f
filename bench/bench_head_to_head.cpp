// Flagship head-to-head table: every policy of the zoo x every market
// regime of the catalog on the high-volatility window, with 95% CIs on
// mean cost and deadline-miss rate (exp/head_to_head.hpp). Emits the text
// tables plus a flat bench report for the CI runtime gate
// (BENCH_regime.json baseline; see tools/bench_report.hpp). The wall time
// is printed on stderr; stdout is pinned by tests/golden/.
//
// Usage: bench_head_to_head [num_experiments] [tc_seconds] [report.json]
//                           [journal_path]
// With a journal path the whole matrix is resumable: cells already
// journaled replay instead of re-simulating.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "bench_report.hpp"
#include "exp/head_to_head.hpp"
#include "exp/scenario.hpp"
#include "journal/journal.hpp"
#include "market/spot_market.hpp"
#include "trace/synthetic.hpp"

using namespace redspot;

int main(int argc, char** argv) {
  const std::size_t num_experiments =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 16;
  const Duration tc = argc > 2 ? std::strtoll(argv[2], nullptr, 10) : 300;
  const std::string report_path =
      argc > 3 ? argv[3] : "bench_head_to_head.json";

  SpotMarket market(paper_traces(42), cc2_instance(), QueueDelayModel());

  HeadToHeadOptions options;
  options.scenario =
      Scenario{VolatilityWindow::kHigh, 0.15, tc, num_experiments};
  std::optional<RunJournal> journal;
  if (argc > 4) {
    journal.emplace(argv[4]);
    options.journal = &*journal;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const HeadToHeadResult result = run_head_to_head(market, options);
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  std::fputs(
      result.table("Head-to-head — " + options.scenario.label()).c_str(),
      stdout);
  std::printf(
      "randomized-bid draw: %s | %zu cells | journal: %zu replayed, %zu "
      "recomputed\n",
      result.drawn_bid.str().c_str(), result.cells.size(),
      result.chunks_replayed, result.chunks_recomputed);
  // Wall time goes to stderr so stdout stays a deterministic table.
  std::fprintf(stderr, "head-to-head: %.0f ms\n", ms);

  benchreport::Report report;
  report.schema = "redspot-head-to-head-v1";
  report.set("head_to_head_ms", ms);
  report.set("h2h.cells", static_cast<double>(result.cells.size()));
  for (const HeadToHeadCell& c : result.cells) {
    const std::string k = "h2h." + c.regime + "." + c.policy + ".";
    report.set(k + "n", static_cast<double>(c.n));
    report.set(k + "mean_cost", c.mean_cost);
    report.set(k + "cost_lo", c.cost_lo);
    report.set(k + "cost_hi", c.cost_hi);
    report.set(k + "median_cost", c.median_cost);
    report.set(k + "miss_rate", c.miss_rate);
  }
  benchreport::write_report(report, report_path);
  std::printf("wrote %s\n", report_path.c_str());
  return 0;
}
