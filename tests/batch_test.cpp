// Batched-vs-scalar bit-identity property suite (DESIGN.md §14).
//
// The BatchedSweepEngine's whole contract is that N lanes advanced in
// lockstep over shared cache-resident state reproduce what N independent
// scalar Engine::run() calls produce, bit-for-bit: costs, termination
// outcome, accounting counters, and — through an EventTraceRecorder on
// every lane — the full event trace.
// These tests drive that contract over randomized config grids — mixed
// policies, bids (including never-in-bid and always-in-bid), zone
// subsets, start offsets, compute sizes, and both trace shapes (alphabet
// / unique-mode and random-walk / quantile-binned windows), faulted grids
// under notice and no-notice regimes — plus a ThreadPool stress run
// exercising the engine's many-concurrent-run() thread-safety claim
// (meaningful under TSan). The model pool's answers for bids around the
// price are checked on their own too; S_min's window scan is checked in
// trace_view_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "core/batch/batched_engine.hpp"
#include "core/batch/model_pool.hpp"
#include "core/events/trace_recorder.hpp"
#include "core/strategy.hpp"
#include "markov/incremental.hpp"
#include "markov/model.hpp"
#include "test_util.hpp"

namespace redspot {
namespace {

using batch::BatchConfig;
using batch::BatchedSweepEngine;

// Two bids share an alive state (both sit between the window's two
// prices) while the current price, absent from the window, falls between
// them: the lower bid is out of bid, the higher one is not. A cached answer
// keyed on the alive state alone would hand the lower bid's 0 to the higher
// one; the pool must answer each bid exactly as a private model does.
TEST(ZoneModelPool, BidsAroundThePriceMatchAPrivateModel) {
  std::vector<Money> samples;
  for (int i = 0; i < 48; ++i)
    samples.push_back(Money::cents(i % 6 < 3 ? 30 : 50));
  const PriceSeries history(0, kPriceStep, std::move(samples));
  const Money price = Money::cents(38);
  const std::vector<Money> bids = {Money::cents(35), Money::cents(45)};

  IncrementalMarkovModel reference(batch::ZoneModelPool::kMaxStates);
  reference.observe(history.view());
  ASSERT_EQ(reference.expected_uptime(price, bids[0]), 0);
  ASSERT_GT(reference.expected_uptime(price, bids[1]), 0);

  batch::ZoneModelPool pool;
  // Both orders: the higher bid first fills the memo slot the lower one
  // maps to.
  for (const Money bid : {bids[1], bids[0], bids[1], bids[0]}) {
    EXPECT_EQ(pool.expected_uptime(0, history.view(), price, bid),
              reference.expected_uptime(price, bid))
        << "bid " << bid;
  }
}

// --- Batched vs scalar -------------------------------------------------------

PriceSeries alphabet_series(Rng& rng, std::size_t samples) {
  static const double kLevels[] = {0.25, 0.27, 0.30, 0.35,
                                   0.55, 0.81, 1.20, 2.50};
  std::vector<Money> out;
  out.reserve(samples);
  Money cur = Money::dollars(kLevels[rng.uniform_index(8)]);
  for (std::size_t i = 0; i < samples; ++i) {
    if (rng.bernoulli(0.2)) cur = Money::dollars(kLevels[rng.uniform_index(8)]);
    out.push_back(cur);
  }
  return PriceSeries(0, kPriceStep, std::move(out));
}

PriceSeries walk_series(Rng& rng, std::size_t samples) {
  std::vector<Money> out;
  out.reserve(samples);
  double cur = 0.30;
  for (std::size_t i = 0; i < samples; ++i) {
    cur = std::max(0.05, cur + rng.uniform(-0.02, 0.02));
    out.push_back(Money::dollars(cur));
  }
  return PriceSeries(0, kPriceStep, std::move(out));
}

RunResult scalar_run(const SpotMarket& market, const BatchConfig& config,
                     const EngineOptions& options,
                     EngineObserver* observer = nullptr) {
  FixedStrategy strategy(config.bid, config.zones,
                         make_policy(config.policy));
  Engine engine(market, config.experiment, strategy, options);
  if (observer != nullptr) engine.add_observer(observer);
  return engine.run();
}

void expect_identical(const RunResult& batched, const RunResult& scalar,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(batched.total_cost.micros(), scalar.total_cost.micros());
  EXPECT_EQ(batched.spot_cost.micros(), scalar.spot_cost.micros());
  EXPECT_EQ(batched.on_demand_cost.micros(), scalar.on_demand_cost.micros());
  EXPECT_EQ(batched.completed, scalar.completed);
  EXPECT_EQ(batched.met_deadline, scalar.met_deadline);
  EXPECT_EQ(batched.finish_time, scalar.finish_time);
  EXPECT_EQ(batched.checkpoints_committed, scalar.checkpoints_committed);
  EXPECT_EQ(batched.restarts, scalar.restarts);
  EXPECT_EQ(batched.out_of_bid_terminations, scalar.out_of_bid_terminations);
  EXPECT_EQ(batched.full_outages, scalar.full_outages);
  EXPECT_EQ(batched.spot_instance_seconds, scalar.spot_instance_seconds);
  EXPECT_EQ(batched.on_demand_seconds, scalar.on_demand_seconds);
  EXPECT_EQ(batched.switched_to_on_demand, scalar.switched_to_on_demand);
  EXPECT_EQ(batched.committed_progress, scalar.committed_progress);
  EXPECT_EQ(batched.faults.ckpt_write_failures,
            scalar.faults.ckpt_write_failures);
  EXPECT_EQ(batched.faults.ckpt_corruptions, scalar.faults.ckpt_corruptions);
  EXPECT_EQ(batched.faults.restart_failures, scalar.faults.restart_failures);
  EXPECT_EQ(batched.faults.request_rejections,
            scalar.faults.request_rejections);
  EXPECT_EQ(batched.faults.notices_dropped, scalar.faults.notices_dropped);
  EXPECT_EQ(batched.faults.notices_late, scalar.faults.notices_late);
  EXPECT_EQ(batched.faults.backoff_total, scalar.faults.backoff_total);
}

/// Runs `configs` batched and each one scalar, with an EventTraceRecorder
/// on every run (attached to the lanes through BatchConfig::observer), and
/// expects identical results and identical traces — the strictest
/// equality the engine can express: calendar dispatch order, every zone
/// transition, line item, checkpoint settlement and injected fault.
/// Returns the batched results.
std::vector<RunResult> expect_batched_matches_scalar(
    const SpotMarket& market, std::vector<BatchConfig> configs,
    const EngineOptions& options, const std::string& label) {
  std::vector<EventTraceRecorder> traces(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i)
    configs[i].observer = &traces[i];
  const BatchedSweepEngine batcher(market, options);
  const std::vector<RunResult> batched = batcher.run(configs);
  EXPECT_EQ(batched.size(), configs.size());
  if (batched.size() != configs.size()) return batched;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string lane = label + " lane " + std::to_string(i);
    EventTraceRecorder scalar_trace;
    expect_identical(batched[i],
                     scalar_run(market, configs[i], options, &scalar_trace),
                     lane);
    const std::vector<std::string>& b = traces[i].lines();
    const std::vector<std::string>& s = scalar_trace.lines();
    const auto [bi, si] = std::mismatch(b.begin(), b.end(), s.begin(), s.end());
    EXPECT_TRUE(bi == b.end() && si == s.end())
        << lane << ": traces diverge at line " << (bi - b.begin())
        << ": batched \"" << (bi == b.end() ? "<end>" : *bi)
        << "\" vs scalar \"" << (si == s.end() ? "<end>" : *si) << '"';
  }
  return batched;
}

/// What random_grid draws each lane's policy, compute size, start and
/// history span from. The defaults are the mixed short-history grid.
struct GridShape {
  std::vector<PolicyKind> policies = {
      PolicyKind::kPeriodic, PolicyKind::kMarkovDaly, PolicyKind::kRisingEdge,
      PolicyKind::kThreshold};
  std::vector<double> compute_hours = {1.0, 2.0, 3.0};
  std::vector<SimTime> starts = {0, kHour, 2 * kHour, 3 * kHour};
  Duration history_span = 2 * kHour;
};

std::vector<BatchConfig> random_grid(Rng& rng, std::size_t num_zones,
                                     std::size_t lanes,
                                     const GridShape& shape = {}) {
  // Bids spanning the interesting regimes: never-in-bid (forces the
  // deadline switch to on-demand), contested, and always-in-bid.
  static const double kBids[] = {0.01, 0.26, 0.60, 0.95, 3.50};
  const auto pick = [&rng](const auto& options) {
    return options[rng.uniform_index(options.size())];
  };

  std::vector<BatchConfig> configs;
  for (std::size_t i = 0; i < lanes; ++i) {
    BatchConfig c;
    const double compute_hours = pick(shape.compute_hours);
    const double slack_frac = 0.5 + rng.uniform(0.0, 0.5);
    c.experiment = testing::small_experiment(compute_hours, slack_frac,
                                             /*tc=*/5 * kMinute,
                                             /*start=*/pick(shape.starts));
    c.experiment.history_span = shape.history_span;
    c.experiment.validate();
    c.policy = pick(shape.policies);
    c.bid = Money::dollars(kBids[rng.uniform_index(5)]);
    c.zones.clear();
    const std::size_t first = rng.uniform_index(num_zones);
    for (std::size_t z = 0; z < num_zones; ++z)
      if (z == first || rng.bernoulli(0.4)) c.zones.push_back(z);
    configs.push_back(std::move(c));
  }
  return configs;
}

TEST(BatchedSweep, RandomGridsMatchScalarBitForBit) {
  Rng rng(9001);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t num_zones = 1 + static_cast<std::size_t>(trial) % 3;
    // Alternate trace shapes: alphabet keeps windows in unique mode,
    // random walks push them into the quantile-binned slide. Vary length
    // so the trace/deadline alignment differs per trial.
    const std::size_t samples = 288 + 48 * static_cast<std::size_t>(trial);
    std::vector<PriceSeries> series;
    for (std::size_t z = 0; z < num_zones; ++z) {
      series.push_back(trial % 2 == 0 ? alphabet_series(rng, samples)
                                      : walk_series(rng, samples));
    }
    const SpotMarket market = testing::make_market(testing::zones(series));

    expect_batched_matches_scalar(market,
                                  random_grid(rng, num_zones, /*lanes=*/12),
                                  {}, "trial " + std::to_string(trial));
  }
}

// Faulted lanes batch like any other: each lane's FaultInjector is private
// to its engine and seeded from its experiment, and no fault touches the
// prices the shared models read. Every fault class fires (plus
// a store outage), under the classic regime, the 2-minute rebalance
// notice, and classic billing with a 300 s notice.
TEST(BatchedSweep, FaultedGridsMatchScalarBitForBit) {
  EngineOptions options;
  options.faults.ckpt_write_failure_rate = 0.2;
  options.faults.ckpt_corruption_rate = 0.2;
  options.faults.restart_failure_rate = 0.2;
  options.faults.request_rejection_rate = 0.2;
  options.faults.notice_drop_rate = 0.2;
  options.faults.notice_late_rate = 0.3;
  options.faults.store_outages = {{2 * kHour, 3 * kHour}};
  MarketRegime classic_notice = MarketRegime::classic_2012();
  classic_notice.rebalance_notice = 300;
  const std::vector<std::pair<std::string, MarketRegime>> regimes = {
      {"classic", MarketRegime::classic_2012()},
      {"rebalance", MarketRegime::rebalance()},
      {"classic+300s notice", classic_notice}};

  // Longer runs than the default grid: more kills land after a commit,
  // so restarts (and their failures) happen.
  GridShape shape;
  shape.compute_hours = {3.0, 5.0, 7.0};

  Rng rng(9005);
  FaultStats fired;
  for (const auto& [name, regime] : regimes) {
    options.regime = regime;
    for (int trial = 0; trial < 4; ++trial) {
      const std::size_t num_zones = 1 + static_cast<std::size_t>(trial) % 3;
      const std::size_t samples = 288 + 48 * static_cast<std::size_t>(trial);
      std::vector<PriceSeries> series;
      for (std::size_t z = 0; z < num_zones; ++z) {
        series.push_back(trial % 2 == 0 ? alphabet_series(rng, samples)
                                        : walk_series(rng, samples));
      }
      const SpotMarket market = testing::make_market(testing::zones(series));
      std::vector<BatchConfig> configs =
          random_grid(rng, num_zones, /*lanes=*/12, shape);
      // Distinct fault streams per lane (the injector seeds from the
      // experiment).
      for (BatchConfig& c : configs) c.experiment.seed = rng.next_u64();
      const std::vector<RunResult> runs = expect_batched_matches_scalar(
          market, std::move(configs), options,
          name + " trial " + std::to_string(trial));
      for (const RunResult& r : runs) {
        fired.ckpt_write_failures += r.faults.ckpt_write_failures;
        fired.ckpt_corruptions += r.faults.ckpt_corruptions;
        fired.restart_failures += r.faults.restart_failures;
        fired.request_rejections += r.faults.request_rejections;
        fired.notices_dropped += r.faults.notices_dropped;
        fired.notices_late += r.faults.notices_late;
      }
    }
  }
  EXPECT_GT(fired.ckpt_write_failures, 0);
  EXPECT_GT(fired.ckpt_corruptions, 0);
  EXPECT_GT(fired.restart_failures, 0);
  EXPECT_GT(fired.request_rejections, 0);
  EXPECT_GT(fired.notices_dropped, 0);
  EXPECT_GT(fired.notices_late, 0);
}

// Threshold lanes from the trace's first sample with the paper's 2-day
// history: their first S_min windows cover only the elapsed samples, then
// grow to the full two days. Lanes starting past two days scan sliding
// windows.
TEST(BatchedSweep, ThresholdFromTraceStartMatchesScalarBitForBit) {
  Rng rng(9004);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<PriceSeries> series;
    for (std::size_t z = 0; z < 3; ++z) {
      series.push_back((z + trial) % 2 == 0 ? alphabet_series(rng, 7 * 288)
                                            : walk_series(rng, 7 * 288));
    }
    const SpotMarket market = testing::make_market(testing::zones(series));
    const SimTime first = market.trace_start();

    GridShape shape;
    shape.policies = {PolicyKind::kThreshold};
    shape.compute_hours = {6.0, 12.0, 18.0};
    // Three in five lanes start at the trace's first sample.
    shape.starts = {first, first, first, first + 2 * kDay + 35 * kMinute,
                    first + 2 * kDay + 5 * kHour + 10 * kMinute};
    shape.history_span = 2 * kDay;

    expect_batched_matches_scalar(
        market, random_grid(rng, series.size(), /*lanes=*/24, shape), {},
        "trial " + std::to_string(trial));
  }
}

TEST(BatchedSweep, EdgeGroups) {
  Rng rng(9002);
  std::vector<PriceSeries> series;
  series.push_back(alphabet_series(rng, 288));
  series.push_back(walk_series(rng, 288));
  const SpotMarket market = testing::make_market(testing::zones(series));
  const BatchedSweepEngine batcher(market);

  // Empty group.
  EXPECT_TRUE(batcher.run({}).empty());

  // Single lane.
  std::vector<BatchConfig> one = random_grid(rng, 2, 1);
  expect_identical(batcher.run(one)[0], scalar_run(market, one[0], {}),
                   "single lane");

  // Identical lanes must produce identical results (shared state must not
  // leak one lane's progress into another).
  std::vector<BatchConfig> same(8, one[0]);
  const std::vector<RunResult> results = batcher.run(same);
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_identical(results[i], results[0],
                     "clone lane " + std::to_string(i));
  }
}

// One immutable BatchedSweepEngine serving many concurrent run() calls:
// the thread-safety claim the sweep fabric relies on. Every concurrent
// result must equal the single-threaded reference; under TSan this also
// proves the shared model pool and per-run state carry no hidden races.
TEST(BatchedSweep, ConcurrentRunsShareOneEngine) {
  Rng rng(9003);
  std::vector<PriceSeries> series;
  series.push_back(alphabet_series(rng, 288));
  series.push_back(walk_series(rng, 288));
  const SpotMarket market = testing::make_market(testing::zones(series));
  const BatchedSweepEngine batcher(market);

  const std::vector<BatchConfig> configs = random_grid(rng, 2, 8);
  const std::vector<RunResult> reference = batcher.run(configs);

  constexpr int kRuns = 8;
  std::vector<std::vector<RunResult>> results(kRuns);
  ThreadPool pool(4);
  for (int r = 0; r < kRuns; ++r) {
    pool.submit([&, r] { results[r] = batcher.run(configs); });
  }
  pool.wait_idle();

  for (int r = 0; r < kRuns; ++r) {
    ASSERT_EQ(results[r].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_identical(results[r][i], reference[i],
                       "run " + std::to_string(r) + " lane " +
                           std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace redspot
