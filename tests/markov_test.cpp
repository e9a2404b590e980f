// Unit tests for the price-state Markov model and expected-uptime solvers
// (Appendix B of the paper).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/random.hpp"
#include "linalg/lu.hpp"
#include "markov/model.hpp"
#include "markov/uptime.hpp"
#include "test_util.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::step_series;

PriceSeries series_of(std::vector<double> prices) {
  std::vector<Money> samples;
  samples.reserve(prices.size());
  for (double p : prices) samples.push_back(Money::dollars(p));
  return PriceSeries(0, kPriceStep, std::move(samples));
}

// --- Model building -----------------------------------------------------------

TEST(MarkovModel, StatesAreDistinctSortedPrices) {
  const MarkovModel m =
      build_markov_model(series_of({0.3, 0.5, 0.3, 0.5, 0.7}));
  ASSERT_EQ(m.num_states(), 3u);
  EXPECT_DOUBLE_EQ(m.state_prices[0], 0.3);
  EXPECT_DOUBLE_EQ(m.state_prices[1], 0.5);
  EXPECT_DOUBLE_EQ(m.state_prices[2], 0.7);
}

TEST(MarkovModel, RowsAreStochastic) {
  Rng rng(55);
  std::vector<double> prices(500);
  for (auto& p : prices)
    p = 0.3 + 0.1 * static_cast<double>(rng.uniform_index(5));
  const MarkovModel m = build_markov_model(series_of(prices));
  for (std::size_t r = 0; r < m.num_states(); ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < m.num_states(); ++c) {
      EXPECT_GE(m.trans(r, c), 0.0);
      row += m.trans(r, c);
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

TEST(MarkovModel, TransitionCountsWithoutSmoothing) {
  // 0.3 -> 0.3 -> 0.5 -> 0.3: from 0.3: one self, one to 0.5.
  const MarkovModel m =
      build_markov_model(series_of({0.3, 0.3, 0.5, 0.3}), 32, 0.0);
  EXPECT_DOUBLE_EQ(m.trans(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.trans(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(m.trans(1, 0), 1.0);
}

TEST(MarkovModel, TerminalStateGetsSelfLoop) {
  // 0.9 is only observed as the last sample.
  const MarkovModel m =
      build_markov_model(series_of({0.3, 0.3, 0.9}), 32, 0.0);
  EXPECT_DOUBLE_EQ(m.trans(1, 1), 1.0);
}

TEST(MarkovModel, QuantileBinningCapsStates) {
  Rng rng(66);
  std::vector<double> prices(2000);
  for (auto& p : prices) p = rng.uniform(0.27, 3.0);  // ~2000 unique values
  const MarkovModel m = build_markov_model(series_of(prices), 16);
  EXPECT_LE(m.num_states(), 16u);
  EXPECT_GE(m.num_states(), 8u);
  // State prices remain sorted.
  for (std::size_t i = 1; i < m.num_states(); ++i)
    EXPECT_LT(m.state_prices[i - 1], m.state_prices[i]);
}

TEST(MarkovModel, StateOfPicksNearest) {
  const MarkovModel m =
      build_markov_model(series_of({0.3, 0.5, 0.3, 0.5}));
  EXPECT_EQ(m.state_of(Money::dollars(0.31)), 0u);
  EXPECT_EQ(m.state_of(Money::dollars(0.49)), 1u);
  EXPECT_EQ(m.state_of(Money::dollars(9.0)), 1u);  // clamps to extreme
}

TEST(MarkovModel, MaxAliveState) {
  const MarkovModel m =
      build_markov_model(series_of({0.3, 0.5, 0.7, 0.3, 0.5, 0.7}));
  EXPECT_EQ(m.max_alive_state(Money::dollars(0.55)), 1u);
  EXPECT_EQ(m.max_alive_state(Money::dollars(0.70)), 2u);
  EXPECT_EQ(m.max_alive_state(Money::dollars(0.10)), SIZE_MAX);
}

TEST(MarkovModel, StateOfBoundaries) {
  const MarkovModel m =
      build_markov_model(series_of({0.3, 0.5, 0.7, 0.3, 0.5, 0.7}));
  // Exactly on a state price -> that state.
  EXPECT_EQ(m.state_of(Money::dollars(0.3)), 0u);
  EXPECT_EQ(m.state_of(Money::dollars(0.5)), 1u);
  EXPECT_EQ(m.state_of(Money::dollars(0.7)), 2u);
  // Below the minimum / above the maximum clamp to the extremes.
  EXPECT_EQ(m.state_of(Money::dollars(0.01)), 0u);
  EXPECT_EQ(m.state_of(Money::dollars(99.0)), 2u);
}

TEST(MarkovModel, StateOfEquidistantTiePicksLowerIndex) {
  // 0.25, 0.5 and 0.75 are exactly representable, so 0.5 is a true FP
  // midpoint; the tie must resolve to the lower index, matching the
  // historical first-minimum scan.
  const MarkovModel m = build_markov_model(series_of({0.25, 0.75, 0.25}));
  EXPECT_EQ(m.state_of(Money::dollars(0.5)), 0u);
  // Either side of the midpoint snaps to the true nearest state.
  EXPECT_EQ(m.state_of(Money::dollars(0.49)), 0u);
  EXPECT_EQ(m.state_of(Money::dollars(0.51)), 1u);
}

TEST(MarkovModel, MaxAliveStateBoundaries) {
  const MarkovModel m =
      build_markov_model(series_of({0.3, 0.5, 0.7, 0.3, 0.5, 0.7}));
  // Bid exactly on a state price keeps that state alive.
  EXPECT_EQ(m.max_alive_state(Money::dollars(0.3)), 0u);
  EXPECT_EQ(m.max_alive_state(Money::dollars(0.5)), 1u);
  // Bid below every state: nothing alive.
  EXPECT_EQ(m.max_alive_state(Money::dollars(0.29)), SIZE_MAX);
  // Bid between states rounds down; above the maximum keeps everything.
  EXPECT_EQ(m.max_alive_state(Money::dollars(0.69)), 1u);
  EXPECT_EQ(m.max_alive_state(Money::dollars(42.0)), 2u);
}

TEST(MarkovModel, SingleSampleHistoryDegeneratesToSelfLoop) {
  const MarkovModel m = build_markov_model(constant_series(0.3, 1));
  ASSERT_EQ(m.num_states(), 1u);
  EXPECT_NEAR(m.trans(0, 0), 1.0, 1e-12);
  EXPECT_EQ(expected_uptime(m, Money::dollars(0.3), Money::cents(81)),
            kDefaultUptimeCap);
}

/// The plain fit build_markov_model must reproduce bit for bit: sort the
/// window, take its distinct prices as states or cut it into quantile bins
/// (edges read off the sorted window, bin means summed in chronological
/// order), count transitions, normalize, smooth.
MarkovModel reference_build(const PriceView& history, std::size_t max_states,
                            double smoothing) {
  const std::vector<double> values = history.to_doubles();
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> unique = sorted;
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  std::vector<double> state_prices;
  std::vector<std::size_t> state_of_sample(values.size());
  if (unique.size() <= max_states) {
    state_prices = unique;
    for (std::size_t i = 0; i < values.size(); ++i)
      state_of_sample[i] = static_cast<std::size_t>(
          std::lower_bound(unique.begin(), unique.end(), values[i]) -
          unique.begin());
  } else {
    std::vector<double> edges;
    for (std::size_t b = 0; b + 1 < max_states; ++b) {
      const double q =
          static_cast<double>(b + 1) / static_cast<double>(max_states);
      edges.push_back(sorted[static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1))]);
    }
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::vector<double> bin_sum(edges.size() + 1, 0.0);
    std::vector<std::size_t> bin_count(edges.size() + 1, 0);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::size_t b = static_cast<std::size_t>(
          std::upper_bound(edges.begin(), edges.end(), values[i]) -
          edges.begin());
      state_of_sample[i] = b;
      bin_sum[b] += values[i];
      ++bin_count[b];
    }
    std::vector<std::size_t> remap(bin_sum.size(), SIZE_MAX);
    for (std::size_t b = 0; b < bin_sum.size(); ++b) {
      if (bin_count[b] == 0) continue;
      remap[b] = state_prices.size();
      state_prices.push_back(bin_sum[b] / static_cast<double>(bin_count[b]));
    }
    for (auto& s : state_of_sample) s = remap[s];
  }
  const std::size_t n = state_prices.size();
  std::vector<std::int64_t> counts(n * n, 0);
  std::vector<std::int64_t> occupancy(n, 0);
  for (std::size_t i = 0; i + 1 < state_of_sample.size(); ++i)
    ++counts[state_of_sample[i] * n + state_of_sample[i + 1]];
  for (std::size_t s : state_of_sample) ++occupancy[s];

  MarkovModel model;
  model.state_prices = state_prices;
  model.step = history.step();
  model.trans = Matrix(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    std::int64_t row_total = 0;
    for (std::size_t c = 0; c < n; ++c) row_total += counts[r * n + c];
    if (row_total == 0) {
      model.trans(r, r) = 1.0;
      continue;
    }
    const double inv = 1.0 / static_cast<double>(row_total);
    for (std::size_t c = 0; c < n; ++c)
      model.trans(r, c) = static_cast<double>(counts[r * n + c]) * inv;
  }
  if (smoothing > 0.0) {
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        model.trans(r, c) =
            (1.0 - smoothing) * model.trans(r, c) +
            smoothing * (static_cast<double>(occupancy[c]) /
                         static_cast<double>(values.size()));
  }
  return model;
}

TEST(MarkovModel, FitIsBitIdenticalToReferenceBuild) {
  // Windows of 1-600 samples over alphabets of 1-400 prices, some with
  // most of the mass on the lowest price (so the lowest quantile edges
  // collapse onto it and the empty bin below them is dropped), fitted at
  // several state bounds.
  Rng rng(8080);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = 1 + rng.uniform_index(600);
    const std::size_t alphabet = 1 + rng.uniform_index(400);
    const bool piled = rng.uniform() < 0.3;
    std::vector<Money> samples(len);
    std::int64_t level = static_cast<std::int64_t>(rng.uniform_index(alphabet));
    for (Money& m : samples) {
      if (rng.uniform() < 0.4)
        level = static_cast<std::int64_t>(rng.uniform_index(alphabet));
      m = piled && rng.uniform() < 0.8 ? Money::cents(20)
                                       : Money::cents(20 + level);
    }
    const PriceSeries s(0, kPriceStep, std::move(samples));
    const std::size_t bounds[] = {2, 3, 8, 32, 64};
    const std::size_t max_states = bounds[rng.uniform_index(5)];
    const double smoothing = rng.uniform() < 0.2 ? 0.0 : kDefaultSmoothing;
    const MarkovModel got = build_markov_model(s, max_states, smoothing);
    const MarkovModel want = reference_build(s.view(), max_states, smoothing);
    ASSERT_EQ(got.state_prices, want.state_prices) << "trial " << trial;
    ASSERT_EQ(got.trans, want.trans) << "trial " << trial;
    ASSERT_EQ(got.step, want.step);
  }
}

TEST(MarkovModel, ValidatesInput) {
  EXPECT_THROW(build_markov_model(constant_series(0.3, 10), 1),
               CheckFailure);
  EXPECT_THROW(build_markov_model(constant_series(0.3, 10), 32, 1.0),
               CheckFailure);
}

// --- Expected uptime -------------------------------------------------------------

TEST(Uptime, ZeroWhenCurrentlyOutOfBid) {
  const MarkovModel m = build_markov_model(series_of({0.3, 1.0, 0.3, 1.0}));
  EXPECT_EQ(expected_uptime(m, Money::dollars(1.0), Money::cents(81)), 0);
  EXPECT_EQ(expected_uptime_iterative(m, Money::dollars(1.0),
                                      Money::cents(81)),
            0);
}

TEST(Uptime, CapWhenBidAboveEverything) {
  const MarkovModel m = build_markov_model(series_of({0.3, 0.4, 0.3, 0.4}));
  EXPECT_EQ(expected_uptime(m, Money::dollars(0.3), Money::dollars(5.0)),
            kDefaultUptimeCap);
}

TEST(Uptime, TwoStateChainMatchesGeometricFormula) {
  // Build an exact two-state chain: stay alive with probability q, die
  // with probability 1-q. Expected absorption time = 1/(1-q) steps.
  MarkovModel m;
  m.state_prices = {0.30, 1.00};
  m.trans = Matrix{{0.9, 0.1}, {0.5, 0.5}};
  m.step = kPriceStep;
  const Duration e =
      expected_uptime(m, Money::dollars(0.30), Money::cents(81));
  EXPECT_NEAR(static_cast<double>(e), 10.0 * kPriceStep,
              static_cast<double>(kPriceStep) * 0.01);
}

TEST(Uptime, IterativeMatchesClosedForm) {
  // Property: the paper's iterative estimator and the fundamental-matrix
  // solution agree on random chains.
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> prices(400);
    double level = 0.4;
    for (auto& p : prices) {
      if (rng.bernoulli(0.1)) level = rng.uniform(0.3, 1.5);
      p = std::round(level * 100.0) / 100.0;
    }
    const MarkovModel m = build_markov_model(series_of(prices), 24);
    const Money cur = Money::dollars(prices.back());
    const Money bid = Money::cents(81);
    const Duration closed = expected_uptime(m, cur, bid);
    const Duration iter = expected_uptime_iterative(m, cur, bid, 60000);
    if (closed == kDefaultUptimeCap || iter == kDefaultUptimeCap) {
      // Both must agree that the horizon is effectively unbounded.
      EXPECT_GT(std::min(closed, iter),
                kDefaultUptimeCap / 3);
    } else {
      EXPECT_NEAR(static_cast<double>(iter), static_cast<double>(closed),
                  0.02 * static_cast<double>(closed) + 600.0);
    }
  }
}

/// The plain closed-form solve the expected-uptime path must reproduce:
/// I - Q over the alive states, factored, then forward and back
/// substitution over every row. Returns t (steps to absorption per alive
/// state), or an empty vector when I - Q is singular.
std::vector<double> reference_steps(const MarkovModel& model, Money bid) {
  const std::size_t m = model.max_alive_state(bid) + 1;
  std::vector<double> imq(m * m);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < m; ++c)
      imq[r * m + c] = (r == c ? 1.0 : 0.0) - model.trans(r, c);
  std::vector<std::size_t> perm(m);
  int sign = 1;
  if (detail::lu_factor_inplace(imq.data(), m, perm.data(), &sign)) return {};
  std::vector<double> t(m, 1.0);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 1.0;
    for (std::size_t j = 0; j < i; ++j) acc -= imq[i * m + j] * t[j];
    t[i] = acc;
  }
  for (std::size_t i = m; i-- > 0;) {
    double acc = t[i];
    for (std::size_t j = i + 1; j < m; ++j) acc -= imq[i * m + j] * t[j];
    t[i] = acc / imq[i * m + i];
  }
  return t;
}

TEST(Uptime, ClosedFormIsBitIdenticalToReferenceSolve) {
  // Paper-trace windows at every bid that leaves 1-64 states alive, from
  // every alive start state: the solve's steps from the start state up
  // (all it computes) equal the plain solve's bit for bit.
  const ZoneTraceSet traces = paper_traces(42);
  UptimeScratch scratch;
  std::size_t solves = 0;
  for (SimTime day = 20; day < 90; day += 7) {
    const PriceSeries w = traces.zone(day % 3).window(
        day * kDay, day * kDay + 2 * kDay);
    const MarkovModel model = build_markov_model(w, 64);
    for (std::size_t a = 0; a < model.num_states(); ++a) {
      const Money bid = Money::from_micros(
          static_cast<std::int64_t>(std::llround(model.state_prices[a] * 1e6)));
      if (model.max_alive_state(bid) != a) continue;
      const std::vector<double> want = reference_steps(model, bid);
      for (std::size_t s = 0; s <= a; ++s) {
        const Money price = Money::from_micros(static_cast<std::int64_t>(
            std::llround(model.state_prices[s] * 1e6)));
        if (price > bid || model.state_of(price) != s) continue;
        const Duration got =
            expected_uptime(model, price, bid, kDefaultUptimeCap, scratch);
        if (want.empty()) {
          EXPECT_EQ(got, kDefaultUptimeCap);
          continue;
        }
        ASSERT_EQ(scratch.t.size(), want.size());
        for (std::size_t i = s; i < want.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(scratch.t[i]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << "day " << day << " alive " << a << " start " << s
              << " row " << i;
        }
        ++solves;
      }
    }
  }
  EXPECT_GT(solves, 500u);
}

TEST(Uptime, HigherBidNeverShortensUptime) {
  const ZoneTraceSet traces = paper_traces(42);
  const PriceSeries w = traces.zone(1).window(35 * kDay, 37 * kDay);
  const MarkovModel m = build_markov_model(w);
  const Money cur = w.sample(w.size() - 1);
  Duration prev = 0;
  for (Money bid = cur; bid <= Money::dollars(3.07);
       bid += Money::cents(20)) {
    const Duration e = expected_uptime(m, cur, bid);
    EXPECT_GE(e, prev);
    prev = e;
  }
}

TEST(Uptime, SmoothingPreventsClosedClassCap) {
  // Two disjoint calm/high blocks: without smoothing the calm block is a
  // closed class under a bid between them; with smoothing the estimate
  // stays finite (below the cap).
  std::vector<double> prices;
  for (int i = 0; i < 100; ++i) prices.push_back(0.30);
  for (int i = 0; i < 20; ++i) prices.push_back(2.00);
  for (int i = 0; i < 100; ++i) prices.push_back(0.31);
  const MarkovModel smoothed = build_markov_model(series_of(prices), 32,
                                                  0.02);
  const Duration e =
      expected_uptime(smoothed, Money::dollars(0.31), Money::cents(81));
  EXPECT_GT(e, 0);
  EXPECT_LT(e, kDefaultUptimeCap);
}

TEST(Uptime, CombinedIsSumOfZones) {
  const std::vector<Duration> per_zone{kHour, 2 * kHour, 30 * kMinute};
  EXPECT_EQ(combined_expected_uptime(per_zone), 3 * kHour + 30 * kMinute);
  EXPECT_EQ(combined_expected_uptime(std::vector<Duration>{}), 0);
  EXPECT_THROW(combined_expected_uptime(std::vector<Duration>{-1}),
               CheckFailure);
}

TEST(Uptime, MoreVolatileHistoryGivesShorterUptime) {
  // A history that leaves the bid often must predict shorter uptime than
  // one that rarely does.
  std::vector<double> stable, flappy;
  Rng rng(88);
  for (int i = 0; i < 500; ++i) {
    stable.push_back(rng.bernoulli(0.02) ? 1.0 : 0.30);
    flappy.push_back(rng.bernoulli(0.3) ? 1.0 : 0.30);
  }
  const MarkovModel ms = build_markov_model(series_of(stable));
  const MarkovModel mf = build_markov_model(series_of(flappy));
  const Money cur = Money::dollars(0.30);
  const Money bid = Money::cents(81);
  EXPECT_GT(expected_uptime(ms, cur, bid), expected_uptime(mf, cur, bid));
}

}  // namespace
}  // namespace redspot
