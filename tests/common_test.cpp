// Unit tests for the common substrate: Money, time helpers, the RNG, the
// check macros, logging, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/money.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/time.hpp"

namespace redspot {
namespace {

using namespace money_literals;

// --- Money ------------------------------------------------------------------

TEST(Money, DefaultIsZero) {
  EXPECT_EQ(Money().micros(), 0);
  EXPECT_EQ(Money().to_double(), 0.0);
}

TEST(Money, DollarsIsExactOnPriceGrid) {
  EXPECT_EQ(Money::dollars(0.27).micros(), 270'000);
  EXPECT_EQ(Money::dollars(2.40).micros(), 2'400'000);
  EXPECT_EQ(Money::dollars(20.02).micros(), 20'020'000);
  EXPECT_EQ(Money::dollars(-1.5).micros(), -1'500'000);
}

TEST(Money, CentsAndMicros) {
  EXPECT_EQ(Money::cents(81), Money::dollars(0.81));
  EXPECT_EQ(Money::from_micros(123).micros(), 123);
}

TEST(Money, Arithmetic) {
  const Money a = Money::dollars(0.27);
  const Money b = Money::dollars(0.54);
  EXPECT_EQ(a + a, b);
  EXPECT_EQ(b - a, a);
  EXPECT_EQ(-a, Money::dollars(-0.27));
  EXPECT_EQ(a * 3, Money::dollars(0.81));
  EXPECT_EQ(3 * a, Money::dollars(0.81));
  Money c = a;
  c += a;
  EXPECT_EQ(c, b);
  c -= a;
  EXPECT_EQ(c, a);
}

TEST(Money, RepeatedAdditionStaysExact) {
  // The motivating case for integer micro-dollars: 1000 x $0.27.
  Money total;
  for (int i = 0; i < 1000; ++i) total += Money::dollars(0.27);
  EXPECT_EQ(total, Money::dollars(270.00));
}

TEST(Money, Ordering) {
  EXPECT_LT(Money::dollars(0.27), Money::dollars(0.28));
  EXPECT_LE(Money::dollars(0.27), Money::dollars(0.27));
  EXPECT_GT(Money::dollars(2.40), Money::dollars(0.81));
}

TEST(Money, ScaledRoundsToNearestMicro) {
  EXPECT_EQ(Money::dollars(1.00).scaled(0.5), Money::dollars(0.50));
  EXPECT_EQ(Money::from_micros(3).scaled(0.5), Money::from_micros(2));  // 1.5 -> 2
}

TEST(Money, Ratio) {
  EXPECT_DOUBLE_EQ(Money::dollars(24.0).ratio(Money::dollars(48.0)), 0.5);
  EXPECT_THROW((void)Money::dollars(1).ratio(Money()), CheckFailure);
}

TEST(Money, Parse) {
  EXPECT_EQ(Money::parse("0.27"), Money::dollars(0.27));
  EXPECT_EQ(Money::parse("$2.40"), Money::dollars(2.40));
  EXPECT_EQ(Money::parse("-0.5"), Money::dollars(-0.50));
  EXPECT_EQ(Money::parse(" 20.02 "), Money::dollars(20.02));
  EXPECT_EQ(Money::parse("48"), Money::dollars(48.0));
  EXPECT_THROW(Money::parse(""), CheckFailure);
  EXPECT_THROW(Money::parse("abc"), CheckFailure);
  EXPECT_THROW(Money::parse("1.2.3"), CheckFailure);
}

TEST(Money, Str) {
  EXPECT_EQ(Money::dollars(0.27).str(), "$0.27");
  EXPECT_EQ(Money::dollars(48.0).str(), "$48.00");
  EXPECT_EQ(Money::dollars(-1.5).str(), "-$1.50");
  EXPECT_EQ(Money::dollars(0.005).str(), "$0.005");
}

TEST(Money, Literals) {
  EXPECT_EQ(0.27_usd, Money::dollars(0.27));
  EXPECT_EQ(48_usd, Money::dollars(48.0));
}

TEST(Money, DollarsRejectsNonFinite) {
  EXPECT_THROW(Money::dollars(std::numeric_limits<double>::quiet_NaN()),
               CheckFailure);
  EXPECT_THROW(Money::dollars(std::numeric_limits<double>::infinity()),
               CheckFailure);
}

// --- Time -------------------------------------------------------------------

TEST(Time, Constants) {
  EXPECT_EQ(kHour, 3600);
  EXPECT_EQ(kPriceStep, 300);
  EXPECT_EQ(kDay, 86400);
}

TEST(Time, HoursConversion) {
  EXPECT_EQ(hours(1.0), kHour);
  EXPECT_EQ(hours(20.0), 20 * kHour);
  EXPECT_EQ(hours(0.5), 1800);
  EXPECT_DOUBLE_EQ(to_hours(kHour), 1.0);
  EXPECT_DOUBLE_EQ(to_hours(90 * kMinute), 1.5);
}

TEST(Time, HourFloorAndNext) {
  EXPECT_EQ(hour_floor(0), 0);
  EXPECT_EQ(hour_floor(3599), 0);
  EXPECT_EQ(hour_floor(3600), 3600);
  EXPECT_EQ(next_hour(0), 3600);
  EXPECT_EQ(next_hour(3600), 7200);
  EXPECT_EQ(next_hour(3601), 7200);
}

TEST(Time, PriceStepFloor) {
  EXPECT_EQ(price_step_floor(0), 0);
  EXPECT_EQ(price_step_floor(299), 0);
  EXPECT_EQ(price_step_floor(300), 300);
  EXPECT_EQ(price_step_floor(301), 300);
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(0), "0+00:00:00");
  EXPECT_EQ(format_time(kDay + kHour + kMinute + 1), "1+01:01:01");
  EXPECT_EQ(format_time(kNever), "never");
  EXPECT_EQ(format_duration(90 * kMinute), "1h30m");
  EXPECT_EQ(format_duration(75), "1m15s");
  EXPECT_EQ(format_duration(42), "42s");
  EXPECT_EQ(format_duration(-kHour), "-1h00m");
}

// --- Check ------------------------------------------------------------------

TEST(Check, PassAndFail) {
  EXPECT_NO_THROW(REDSPOT_CHECK(1 + 1 == 2));
  EXPECT_THROW(REDSPOT_CHECK(false), CheckFailure);
}

TEST(Check, MessageContainsDetail) {
  try {
    REDSPOT_CHECK_MSG(false, "x=" << 42);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("x=42"), std::string::npos);
  }
}

// --- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicBySeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(7, 0), b(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.5);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.uniform_index(0), CheckFailure);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
  EXPECT_THROW(rng.normal(0.0, -1.0), CheckFailure);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
  EXPECT_THROW(rng.exponential(0.0), CheckFailure);
}

TEST(Rng, LognormalIsExpOfNormal) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(1.0, 0.5), 0.0);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// The generator and every distribution are pinned across builds and
// refactors: each (seed, stream) pair's first 64 rounds of mixed draws hash
// to a recorded digest, so a change in arithmetic or draw order fails here
// rather than shifting every synthetic trace.
std::uint64_t draw_digest(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed, stream);
  HashStream h;
  for (int i = 0; i < 64; ++i) {
    h.u64(rng.next_u64());
    h.f64(rng.uniform());
    h.f64(rng.normal());
    h.f64(rng.exponential(0.5));
    h.u64(rng.bernoulli(0.3) ? 1 : 0);
  }
  return h.digest();
}

TEST(Rng, StreamIsPinned) {
  EXPECT_EQ(Rng(42, 0).next_u64(), 0xad0e48b6c455d511ULL);
  EXPECT_EQ(draw_digest(42, 0), 0x957151d08fe2b14fULL);
  EXPECT_EQ(draw_digest(7, 3), 0x270a890d72e91a9dULL);
}

// skip_normal() is normal() without the value: after any mix of the two,
// interleaved with other draws, the stream stands where normal() alone
// leaves it.
TEST(Rng, SkipNormalLeavesTheStreamWhereNormalDoes) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng exact(seed, seed % 5);
    Rng skip(seed, seed % 5);
    for (int i = 0; i < 200; ++i) {
      if (i % 3 == 0) {
        ASSERT_EQ(exact.uniform(), skip.uniform()) << seed << " " << i;
      }
      const double value = exact.normal();
      ASSERT_TRUE(std::isfinite(value));
      if (i % 7 == 0) {
        ASSERT_EQ(skip.normal(), value) << seed << " " << i;
      } else {
        skip.skip_normal();
      }
    }
    EXPECT_EQ(exact.next_u64(), skip.next_u64()) << "seed " << seed;
  }
}

// --- Logging ----------------------------------------------------------------

TEST(Log, LevelRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  LOG_DEBUG << "suppressed";  // must not crash
  set_log_level(before);
}

// --- ThreadPool / parallel_for ----------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, 0, hits.size(),
               [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 5, 5, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, SingleThreadPoolRunsSerially) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  parallel_for(pool, 0, 10, [&order](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, DefaultPoolWorks) {
  std::atomic<int> count{0};
  parallel_for(0, 50, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

}  // namespace
}  // namespace redspot
