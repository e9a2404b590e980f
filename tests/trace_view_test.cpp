// PriceView: the zero-copy window over a price series. Property tests pin
// the view against PriceSeries::window() materialization — same clamping,
// same samples, same scans — across randomized windows, plus the
// next_change edge semantics both paths now share. min_price() is S_min's
// only implementation, scalar and batched engines alike, so it is checked
// against *std::min_element on its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/random.hpp"
#include "test_util.hpp"
#include "trace/price_series.hpp"
#include "trace/price_view.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::step_series;

PriceSeries random_series(Rng& rng, std::size_t max_len = 400) {
  const std::size_t len = 1 + rng.uniform_index(max_len);
  const SimTime start =
      static_cast<SimTime>(rng.uniform_index(50)) * kPriceStep;
  // A small price alphabet so constant runs and repeats are common.
  static const double kPrices[] = {0.27, 0.27, 0.30, 0.55, 0.81, 2.40};
  std::vector<Money> samples;
  samples.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    samples.push_back(Money::dollars(kPrices[rng.uniform_index(6)]));
  return PriceSeries(start, kPriceStep, std::move(samples));
}

// --- Basic accessors --------------------------------------------------------------

TEST(PriceView, MirrorsSeriesMetadata) {
  const PriceSeries s = step_series({{0.30, 3}, {0.55, 2}});
  const PriceView v = s.view();
  EXPECT_EQ(v.start(), s.start());
  EXPECT_EQ(v.end(), s.end());
  EXPECT_EQ(v.step(), s.step());
  EXPECT_EQ(v.size(), s.size());
  EXPECT_EQ(v.data(), s.samples().data());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(v.sample(i), s.sample(i));
    EXPECT_EQ(v.time_of(i), s.time_of(i));
  }
}

TEST(PriceView, AtAndIndexOfMatchSeries) {
  const PriceSeries s = step_series({{0.30, 4}, {0.81, 4}}, 10 * kPriceStep);
  const PriceView v = s.view();
  for (SimTime t = s.start(); t < s.end(); t += 97) {
    EXPECT_EQ(v.at(t), s.at(t));
    EXPECT_EQ(v.index_of(t), s.index_of(t));
  }
  // Boundary instants: first covered, last covered.
  EXPECT_EQ(v.at(s.start()), s.sample(0));
  EXPECT_EQ(v.at(s.end() - 1), s.sample(s.size() - 1));
}

TEST(PriceView, MaterializeRoundTrips) {
  const PriceSeries s = step_series({{0.27, 2}, {2.40, 3}}, kPriceStep);
  const PriceSeries copy = s.view().materialize();
  EXPECT_EQ(copy.start(), s.start());
  EXPECT_EQ(copy.step(), s.step());
  ASSERT_EQ(copy.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_EQ(copy.sample(i), s.sample(i));
  // The copy owns its storage.
  EXPECT_NE(copy.samples().data(), s.samples().data());
}

// --- next_change edge semantics ----------------------------------------------------

TEST(PriceView, NextChangeAtLastSampleIsNever) {
  const PriceSeries s = step_series({{0.30, 3}, {0.55, 1}});
  // Query from within the final sample: nothing after it can differ.
  EXPECT_EQ(s.next_change(s.time_of(3)), kNever);
  EXPECT_EQ(s.view().next_change(s.time_of(3)), kNever);
  EXPECT_EQ(s.next_change(s.end() - 1), kNever);
}

TEST(PriceView, NextChangeOnConstantTailIsNever) {
  const PriceSeries s = step_series({{0.55, 2}, {0.30, 6}});
  // From anywhere in the constant tail the price never changes again.
  for (SimTime t = s.time_of(2); t < s.end(); t += kPriceStep / 2)
    EXPECT_EQ(s.next_change(t), kNever) << "t=" << t;
}

TEST(PriceView, NextChangeOnConstantSeriesIsNever) {
  const PriceSeries s = constant_series(0.30, 8);
  EXPECT_EQ(s.next_change(s.start()), kNever);
  EXPECT_EQ(s.view().next_change(s.start()), kNever);
}

TEST(PriceView, NextChangeFindsFirstDifferingSample) {
  const PriceSeries s = step_series({{0.30, 4}, {0.81, 2}, {0.30, 2}});
  // From mid-first-segment: the change lands exactly on sample 4's start.
  EXPECT_EQ(s.next_change(s.start() + kPriceStep / 2), s.time_of(4));
  EXPECT_EQ(s.view().next_change(s.start() + kPriceStep / 2), s.time_of(4));
  // From the second segment: next change is the drop back at sample 6.
  EXPECT_EQ(s.next_change(s.time_of(4)), s.time_of(6));
  // Equal-price samples separated by a different one are distinct changes.
  EXPECT_EQ(s.next_change(s.time_of(6)), kNever);
}

TEST(PriceView, SubviewNextChangeIgnoresSamplesOutsideWindow) {
  const PriceSeries s = step_series({{0.30, 4}, {0.81, 4}});
  // Window over the constant prefix only: no change visible inside it.
  const PriceView v = s.view(s.start(), s.time_of(4));
  EXPECT_EQ(v.next_change(v.start()), kNever);
}

// --- Window slicing vs the owning materialization --------------------------------

void expect_view_matches_window(const PriceSeries& s, SimTime from,
                                SimTime to, Rng& rng) {
  const PriceSeries owned = s.window(from, to);
  const PriceView v = s.view(from, to);
  ASSERT_EQ(v.start(), owned.start()) << "[" << from << "," << to << ")";
  ASSERT_EQ(v.end(), owned.end());
  ASSERT_EQ(v.step(), owned.step());
  ASSERT_EQ(v.size(), owned.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    ASSERT_EQ(v.sample(i), owned.sample(i)) << "i=" << i;
  EXPECT_EQ(v.min_price(), owned.min_price());
  EXPECT_EQ(v.max_price(), owned.max_price());
  const std::vector<double> vd = v.to_doubles();
  const std::vector<double> od = owned.to_doubles();
  ASSERT_EQ(vd, od);
  for (int k = 0; k < 8; ++k) {
    const SimTime t =
        owned.start() + static_cast<SimTime>(rng.uniform_index(
                            static_cast<std::uint64_t>(
                                owned.end() - owned.start())));
    ASSERT_EQ(v.at(t), owned.at(t)) << "t=" << t;
    ASSERT_EQ(v.next_change(t), owned.next_change(t)) << "t=" << t;
  }
}

TEST(PriceViewProperty, RandomWindowsAgreeWithMaterialization) {
  Rng rng(20140623);
  for (int iter = 0; iter < 200; ++iter) {
    const PriceSeries s = random_series(rng);
    for (int w = 0; w < 10; ++w) {
      // Raw bounds may stick out past the series on either side; both
      // paths clamp identically. Keep only combinations that survive the
      // clamp (to > start, from < end, clamped from < clamped to).
      const SimTime lo = s.start() - 2 * kPriceStep +
                         static_cast<SimTime>(rng.uniform_index(
                             static_cast<std::uint64_t>(s.end() - s.start()) +
                             2 * static_cast<std::uint64_t>(kPriceStep)));
      const SimTime hi =
          lo + 1 + static_cast<SimTime>(rng.uniform_index(
                       static_cast<std::uint64_t>(s.end() - s.start()) +
                       2 * static_cast<std::uint64_t>(kPriceStep)));
      if (std::max(lo, s.start()) >= std::min(hi, s.end())) continue;
      expect_view_matches_window(s, lo, hi, rng);
    }
  }
}

TEST(PriceViewProperty, SubviewOfSubviewMatchesDirectWindow) {
  Rng rng(77);
  const PriceSeries s = random_series(rng, 300);
  const PriceView whole = s.view();
  for (int k = 0; k < 50; ++k) {
    const SimTime a = s.start() + static_cast<SimTime>(rng.uniform_index(
                                      static_cast<std::uint64_t>(
                                          s.end() - s.start() - 1)));
    const SimTime b = a + 1 + static_cast<SimTime>(rng.uniform_index(
                                  static_cast<std::uint64_t>(s.end() - a)));
    const PriceView outer = whole.window(a, b);
    // Shrink again from inside the outer view.
    const SimTime c = outer.start() +
                      static_cast<SimTime>(rng.uniform_index(
                          static_cast<std::uint64_t>(outer.end() -
                                                     outer.start() - 1)));
    const PriceView inner = outer.window(c, outer.end());
    const PriceView direct = s.view(c, outer.end());
    ASSERT_EQ(inner.start(), direct.start());
    ASSERT_EQ(inner.size(), direct.size());
    ASSERT_EQ(inner.data(), direct.data());
  }
}

TEST(PriceView, WindowEdgesClampAndAlignOutward) {
  const PriceSeries s = step_series({{0.30, 2}, {0.81, 2}}, 4 * kPriceStep);
  // Bounds far outside the series clamp to the whole view.
  const PriceView all = s.view(0, s.end() + kDay);
  EXPECT_EQ(all.start(), s.start());
  EXPECT_EQ(all.size(), s.size());
  // A window interior to one sample keeps that sample (outward alignment).
  const PriceView one = s.view(s.start() + 10, s.start() + 20);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.start(), s.start());
  EXPECT_EQ(one.sample(0), s.sample(0));
  // `to` exactly on a grid line excludes the sample that starts there.
  const PriceView half = s.view(s.start(), s.time_of(2));
  EXPECT_EQ(half.size(), 2u);
  EXPECT_EQ(half.max_price(), Money::dollars(0.30));
}

TEST(PriceView, MinMaxAtPartialHistoryStart) {
  // The engine's day-one case: the trailing window clamps to a prefix that
  // excludes later (cheaper/pricier) samples.
  const PriceSeries s = step_series({{0.90, 1}, {0.20, 5}, {0.70, 6}});
  EXPECT_EQ(s.view(s.start(), s.start() + 1).min_price(),
            Money::dollars(0.90));
  EXPECT_EQ(s.view(s.start(), s.time_of(2)).min_price(),
            Money::dollars(0.20));
  EXPECT_EQ(s.view(s.time_of(1), s.end()).max_price(), Money::dollars(0.70));
  EXPECT_EQ(s.min_price(), Money::dollars(0.20));
  EXPECT_EQ(s.max_price(), Money::dollars(0.90));
}

TEST(PriceView, MinMaxOfEmptyViewThrow) {
  const PriceView empty;
  ASSERT_TRUE(empty.empty());
  EXPECT_THROW(empty.min_price(), CheckFailure);
  EXPECT_THROW(empty.max_price(), CheckFailure);
}

// --- min_price against the std::min_element reference -----------------------

/// Prices in runs of equal values: half the runs from a small alphabet,
/// half anywhere in the int64 micro-dollar range, a few at its extremes.
std::vector<Money> min_scan_prices(Rng& rng, std::size_t n) {
  constexpr auto kLowest = std::numeric_limits<std::int64_t>::min();
  constexpr auto kHighest = std::numeric_limits<std::int64_t>::max();
  std::vector<Money> out;
  out.reserve(n);
  while (out.size() < n) {
    const double u = rng.uniform();
    const std::int64_t micros =
        u < 0.005  ? kLowest
        : u < 0.01 ? kHighest
        : u < 0.5  ? static_cast<std::int64_t>(rng.uniform_index(8)) * 10'000
                   : static_cast<std::int64_t>(rng.next_u64());
    const std::size_t run = 1 + rng.uniform_index(rng.bernoulli(0.1) ? 200 : 4);
    for (std::size_t k = 0; k < run && out.size() < n; ++k)
      out.push_back(Money::from_micros(micros));
  }
  return out;
}

/// min_price() of the view over prices[lo, hi) next to the reference.
void expect_min_matches_reference(const std::vector<Money>& prices,
                                  std::size_t lo, std::size_t hi) {
  const std::span<const Money> samples(prices);
  const PriceView view(0, kPriceStep, samples.subspan(lo, hi - lo));
  ASSERT_EQ(view.min_price(),
            *std::min_element(prices.begin() + static_cast<std::ptrdiff_t>(lo),
                              prices.begin() + static_cast<std::ptrdiff_t>(hi)))
      << "n=" << prices.size() << " [" << lo << ", " << hi << ")";
}

// Every sub-window of views of every size up to 200: each tail length and
// each start offset of the 4-accumulator reduction.
TEST(PriceViewMinScan, EverySubwindowMatchesMinElement) {
  Rng rng(7101);
  for (std::size_t n = 1; n <= 200; ++n) {
    const std::vector<Money> prices = min_scan_prices(rng, n);
    for (std::size_t lo = 0; lo < n; ++lo) {
      for (std::size_t hi = lo + 1; hi <= n; ++hi) {
        expect_min_matches_reference(prices, lo, hi);
      }
    }
  }
}

// A paper-length trace (14 months of 5-minute samples): mostly windows of
// up to about two days, like S_min's, plus log-uniform lengths up to the
// whole trace.
TEST(PriceViewMinScan, RandomWindowsOnPaperLengthTrace) {
  constexpr std::size_t kSamples = 122'976;
  Rng rng(7102);
  const std::vector<Money> prices = min_scan_prices(rng, kSamples);
  const double log_n = std::log(static_cast<double>(kSamples));
  for (int q = 0; q < 100'000; ++q) {
    const std::size_t len =
        rng.bernoulli(0.98) ? 1 + rng.uniform_index(640)
                           : static_cast<std::size_t>(
                                 std::exp(rng.uniform(0.0, log_n)));
    const std::size_t lo = rng.uniform_index(kSamples - len + 1);
    expect_min_matches_reference(prices, lo, lo + len);
  }
}

}  // namespace
}  // namespace redspot
