// Pre-refactor oracle property test.
//
// The decomposition of the monolithic engine into the typed event core,
// zone state machines, billing ledger and deadline monitor must be a pure
// restructuring: every run result is required to be bit-identical to the
// pre-refactor engine. This suite replays a randomized matrix of
// configurations — all six strategies (Periodic, Markov-Daly, Rising Edge,
// Threshold, Large-bid, Adaptive), N in {1, 2, 3}, both slack levels, both
// checkpoint costs, termination notices on and off, and fault-injected
// runs — against a golden file generated at the last monolithic-engine
// commit.
//
// Regenerate (only when a deliberate behaviour change is intended) with:
//   REDSPOT_ORACLE_REGEN=/path/to/engine_oracle.txt ./engine_oracle_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/engine.hpp"
#include "core/policies/large_bid.hpp"
#include "market/spot_market.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

#ifndef REDSPOT_GOLDEN_DIR
#define REDSPOT_GOLDEN_DIR "."
#endif

constexpr int kNumConfigs = 48;

/// The strategies under test; index drives the rotation below.
enum class OracleStrategy {
  kPeriodic,
  kMarkovDaly,
  kRisingEdge,
  kThreshold,
  kLargeBid,
  kAdaptive,
};

const char* name_of(OracleStrategy s) {
  switch (s) {
    case OracleStrategy::kPeriodic: return "periodic";
    case OracleStrategy::kMarkovDaly: return "markov-daly";
    case OracleStrategy::kRisingEdge: return "rising-edge";
    case OracleStrategy::kThreshold: return "threshold";
    case OracleStrategy::kLargeBid: return "large-bid";
    case OracleStrategy::kAdaptive: return "adaptive";
  }
  return "?";
}

/// One line of the golden file: every result-bearing scalar of the run.
std::string result_line(int i, OracleStrategy s, const RunResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "cfg=%02d strat=%s cost=%lld spot=%lld od=%lld done=%d met=%d "
      "finish=%lld ckpts=%d restarts=%d oob=%d outages=%d switch=%d "
      "reconfigs=%d spot_s=%lld od_s=%lld qd=%lld prog=%lld "
      "f=%d/%d/%d/%d/%d/%d bo=%lld",
      i, name_of(s), static_cast<long long>(r.total_cost.micros()),
      static_cast<long long>(r.spot_cost.micros()),
      static_cast<long long>(r.on_demand_cost.micros()), r.completed ? 1 : 0,
      r.met_deadline ? 1 : 0, static_cast<long long>(r.finish_time),
      r.checkpoints_committed, r.restarts, r.out_of_bid_terminations,
      r.full_outages, r.switched_to_on_demand ? 1 : 0, r.config_changes,
      static_cast<long long>(r.spot_instance_seconds),
      static_cast<long long>(r.on_demand_seconds),
      static_cast<long long>(r.queue_delay_total),
      static_cast<long long>(r.committed_progress),
      r.faults.ckpt_write_failures, r.faults.ckpt_corruptions,
      r.faults.restart_failures, r.faults.request_rejections,
      r.faults.notices_dropped, r.faults.notices_late,
      static_cast<long long>(r.faults.backoff_total));
  return buf;
}

/// Deterministically derives config `i` and runs it to completion. With
/// `explicit_classic_regime` the classic-2012 MarketRegime is set on the
/// EngineOptions by name instead of relying on the default — the two must
/// be indistinguishable.
std::string run_config(int i, bool explicit_classic_regime = false) {
  Rng rng(0x0DAC1E5EED, static_cast<std::uint64_t>(i));

  const auto strategy_kind = static_cast<OracleStrategy>(i % 6);
  const double slack = (i / 6) % 2 == 0 ? 0.15 : 0.50;
  const Duration tc = (i / 12) % 2 == 0 ? 300 : 900;
  const Duration notice =
      i % 4 == 1 ? 120 : (i % 4 == 2 ? 600 : 0);
  const bool with_faults = i % 4 == 3;

  // Start 2 days (the history span) plus a varying offset into the trace.
  const SimTime start =
      2 * kDay + static_cast<SimTime>(rng.uniform_index(36)) * kHour +
      static_cast<SimTime>(rng.uniform_index(12)) * kPriceStep;
  Experiment experiment =
      Experiment::paper(start, slack, tc, /*seed=*/0x5EED00 + i);

  // Generate only the window this run can observe.
  SyntheticTraceSpec spec =
      paper_trace_spec(/*seed=*/1000 + static_cast<std::uint64_t>(i % 5));
  spec = trimmed_spec(std::move(spec),
                      experiment.deadline_time() + kHour);
  const SpotMarket market(generate_traces(spec), cc2_instance(),
                          QueueDelayModel(QueueDelayParams::paper_calibrated()));

  const std::size_t n = 1 + i % 3;
  std::vector<std::size_t> zones;
  for (std::size_t z = 0; z < n; ++z)
    zones.push_back((static_cast<std::size_t>(i) + z) % 3);
  const std::vector<Money> grid = paper_bid_grid();
  const Money bid = grid[rng.uniform_index(grid.size())];

  EngineOptions options;
  if (explicit_classic_regime) options.regime = MarketRegime::classic_2012();
  options.regime.rebalance_notice = notice;
  if (with_faults) {
    options.faults.ckpt_write_failure_rate = 0.15;
    options.faults.ckpt_corruption_rate = 0.10;
    options.faults.restart_failure_rate = 0.20;
    options.faults.request_rejection_rate = 0.25;
    options.faults.notice_drop_rate = 0.30;
    options.faults.notice_late_rate = 0.30;
    options.faults.notice_max_lag = 90;
    options.faults.store_outages.push_back(
        StoreOutage{start + 3 * kHour, start + 5 * kHour});
  }

  std::unique_ptr<Strategy> strategy;
  switch (strategy_kind) {
    case OracleStrategy::kPeriodic:
      strategy = std::make_unique<FixedStrategy>(
          bid, zones, make_policy(PolicyKind::kPeriodic));
      break;
    case OracleStrategy::kMarkovDaly:
      strategy = std::make_unique<FixedStrategy>(
          bid, zones, make_policy(PolicyKind::kMarkovDaly));
      break;
    case OracleStrategy::kRisingEdge:
      strategy = std::make_unique<FixedStrategy>(
          bid, zones, make_policy(PolicyKind::kRisingEdge));
      break;
    case OracleStrategy::kThreshold:
      strategy = std::make_unique<FixedStrategy>(
          bid, zones, make_policy(PolicyKind::kThreshold));
      break;
    case OracleStrategy::kLargeBid:
      strategy = std::make_unique<FixedStrategy>(
          LargeBidPolicy::large_bid(), zones,
          std::make_unique<LargeBidPolicy>(bid));
      break;
    case OracleStrategy::kAdaptive:
      strategy = std::make_unique<AdaptiveStrategy>();
      break;
  }

  Engine engine(market, experiment, *strategy, options);
  return result_line(i, strategy_kind, engine.run());
}

std::vector<std::string> compute_all() {
  std::vector<std::string> lines;
  lines.reserve(kNumConfigs);
  for (int i = 0; i < kNumConfigs; ++i) lines.push_back(run_config(i));
  return lines;
}

TEST(EngineOracle, MatchesPreRefactorResults) {
  const std::vector<std::string> lines = compute_all();

  if (const char* regen = std::getenv("REDSPOT_ORACLE_REGEN")) {
    std::ofstream out(regen);
    ASSERT_TRUE(out.good()) << "cannot write " << regen;
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "regenerated " << regen;
  }

  const std::string golden_path =
      std::string(REDSPOT_GOLDEN_DIR) + "/engine_oracle.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) expected.push_back(line);

  ASSERT_EQ(expected.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], expected[i]) << "config " << i;
}

// The regime refactor's safety net: selecting kClassic2012 explicitly is
// bit-identical to the seed engine (whose results the golden file pins
// through the test above), across every strategy / fault / notice shape
// in the rotation. Also pins that selecting the classic regime explicitly
// does not perturb the engine-options hash, so the two spellings share
// journal and ensemble keys.
TEST(EngineOracle, Classic2012RegimeIsBitIdenticalToDefault) {
  for (const int i : {0, 5, 10, 16, 23, 35, 47}) {
    EXPECT_EQ(run_config(i, /*explicit_classic_regime=*/true), run_config(i))
        << "config " << i;
  }
  EngineOptions defaults;
  EngineOptions classic;
  classic.regime = MarketRegime::classic_2012();
  HashStream hd;
  hash_engine_options(hd, defaults);
  HashStream hc;
  hash_engine_options(hc, classic);
  EXPECT_EQ(hd.digest(), hc.digest());
}

}  // namespace
}  // namespace redspot
