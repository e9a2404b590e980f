// Unit tests for the trace substrate: series, trace sets, calendar, CSV
// I/O, experiment windows, availability analysis, the synthetic generator
// and the VAR analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "core/experiment.hpp"
#include "ensemble/seeder.hpp"
#include "ensemble/spec.hpp"
#include "exp/scenario.hpp"
#include "stats/descriptive.hpp"
#include "test_util.hpp"
#include "trace/availability.hpp"
#include "trace/calendar.hpp"
#include "trace/csv_io.hpp"
#include "trace/synthetic.hpp"
#include "trace/var.hpp"
#include "trace/windows.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::step_series;
using testing::single_zone;

// --- PriceSeries ---------------------------------------------------------------

TEST(PriceSeries, BasicAccessors) {
  const PriceSeries s = constant_series(0.27, 12);
  EXPECT_EQ(s.start(), 0);
  EXPECT_EQ(s.end(), 12 * kPriceStep);
  EXPECT_EQ(s.size(), 12u);
  EXPECT_EQ(s.at(0), Money::dollars(0.27));
  EXPECT_EQ(s.at(12 * kPriceStep - 1), Money::dollars(0.27));
  EXPECT_THROW(s.at(12 * kPriceStep), CheckFailure);
  EXPECT_THROW(s.at(-1), CheckFailure);
}

TEST(PriceSeries, PiecewiseConstantLookup) {
  const PriceSeries s = step_series({{0.30, 2}, {0.50, 2}});
  EXPECT_EQ(s.at(0), Money::dollars(0.30));
  EXPECT_EQ(s.at(kPriceStep * 2 - 1), Money::dollars(0.30));
  EXPECT_EQ(s.at(kPriceStep * 2), Money::dollars(0.50));
}

TEST(PriceSeries, IndexTimeRoundTrip) {
  const PriceSeries s = constant_series(1.0, 5, 10 * kPriceStep);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(s.index_of(s.time_of(i)), i);
    EXPECT_EQ(s.index_of(s.time_of(i) + kPriceStep - 1), i);
  }
}

TEST(PriceSeries, NextChange) {
  const PriceSeries s = step_series({{0.30, 3}, {0.50, 2}, {0.50, 1}});
  EXPECT_EQ(s.next_change(0), 3 * kPriceStep);
  EXPECT_EQ(s.next_change(3 * kPriceStep), kNever);  // constant to the end
}

TEST(PriceSeries, MinMax) {
  const PriceSeries s = step_series({{0.30, 1}, {2.5, 1}, {0.27, 1}});
  EXPECT_EQ(s.min_price(), Money::dollars(0.27));
  EXPECT_EQ(s.max_price(), Money::dollars(2.5));
}

TEST(PriceSeries, WindowClampsToBounds) {
  const PriceSeries s = step_series({{0.3, 4}, {0.6, 4}});
  const PriceSeries w = s.window(-100, 100 * kPriceStep);
  EXPECT_EQ(w.start(), s.start());
  EXPECT_EQ(w.end(), s.end());
  const PriceSeries mid = s.window(2 * kPriceStep, 6 * kPriceStep);
  EXPECT_EQ(mid.size(), 4u);
  EXPECT_EQ(mid.at(2 * kPriceStep), Money::dollars(0.3));
  EXPECT_EQ(mid.at(4 * kPriceStep), Money::dollars(0.6));
  EXPECT_THROW(s.window(5, 5), CheckFailure);
}

TEST(PriceSeries, WindowUnalignedEndCoversTo) {
  const PriceSeries s = constant_series(1.0, 10);
  // `to` in the middle of a step: the covering sample must be included.
  const PriceSeries w = s.window(0, kPriceStep + 10);
  EXPECT_GE(w.end(), kPriceStep + 10);
}

TEST(PriceSeries, ValidatesConstruction) {
  EXPECT_THROW(PriceSeries(0, kPriceStep, {}), CheckFailure);
  EXPECT_THROW(PriceSeries(7, kPriceStep, {Money()}), CheckFailure);
  EXPECT_THROW(PriceSeries(0, 0, {Money()}), CheckFailure);
}

TEST(PriceSeries, ToDoubles) {
  const PriceSeries s = step_series({{0.27, 1}, {0.81, 1}});
  const std::vector<double> d = s.to_doubles();
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0], 0.27);
  EXPECT_DOUBLE_EQ(d[1], 0.81);
}

// --- ZoneTraceSet ---------------------------------------------------------------

TEST(ZoneTraceSet, AlignmentIsEnforced) {
  std::vector<PriceSeries> misaligned;
  misaligned.push_back(constant_series(0.3, 4));
  misaligned.push_back(constant_series(0.3, 5));
  EXPECT_THROW(ZoneTraceSet({"a", "b"}, std::move(misaligned)),
               CheckFailure);
}

TEST(ZoneTraceSet, AccessAndSelect) {
  const ZoneTraceSet traces = testing::zones(
      {constant_series(0.3, 4), constant_series(0.5, 4),
       constant_series(0.7, 4)});
  EXPECT_EQ(traces.num_zones(), 3u);
  EXPECT_EQ(traces.price(1, 0), Money::dollars(0.5));
  EXPECT_EQ(traces.zone_name(2), "z2");
  const ZoneTraceSet sub = traces.select_zones({2, 0});
  EXPECT_EQ(sub.num_zones(), 2u);
  EXPECT_EQ(sub.price(0, 0), Money::dollars(0.7));
  EXPECT_THROW(traces.select_zones({5}), CheckFailure);
}

TEST(ZoneTraceSet, Window) {
  const ZoneTraceSet traces =
      testing::zones({constant_series(0.3, 10), constant_series(0.5, 10)});
  const ZoneTraceSet w = traces.window(2 * kPriceStep, 4 * kPriceStep);
  EXPECT_EQ(w.num_zones(), 2u);
  EXPECT_EQ(w.zone(0).size(), 2u);
}

// --- Calendar ---------------------------------------------------------------------

TEST(Calendar, MonthLengths) {
  EXPECT_EQ(days_in_month(0), 31);   // Dec 2012
  EXPECT_EQ(days_in_month(2), 28);   // Feb 2013 (not a leap year)
  EXPECT_EQ(days_in_month(13), 31);  // Jan 2014
  EXPECT_THROW(days_in_month(14), CheckFailure);
}

TEST(Calendar, MonthBoundariesAreContiguous) {
  for (std::size_t m = 0; m + 1 < kTraceMonths; ++m)
    EXPECT_EQ(month_end(m), month_start(m + 1));
  EXPECT_EQ(month_start(0), 0);
  EXPECT_EQ(trace_span(), month_end(kTraceMonths - 1));
}

TEST(Calendar, NamedWindows) {
  EXPECT_EQ(month_name(kLowVolatilityMonth), "Mar 2013");
  EXPECT_EQ(month_name(kHighVolatilityMonth), "Jan 2013");
}

TEST(Calendar, DayStart) {
  EXPECT_EQ(day_start(0, 1), 0);
  EXPECT_EQ(day_start(0, 2), kDay);
  EXPECT_THROW(day_start(0, 32), CheckFailure);
  EXPECT_THROW(day_start(0, 0), CheckFailure);
}

// --- CSV I/O -----------------------------------------------------------------------

TEST(CsvIo, RoundTrip) {
  const ZoneTraceSet original = testing::zones(
      {step_series({{0.27, 3}, {1.205, 2}}), step_series({{0.5, 5}})});
  std::ostringstream out;
  write_csv(out, original);
  std::istringstream in(out.str());
  const ZoneTraceSet parsed = read_csv(in);
  ASSERT_EQ(parsed.num_zones(), 2u);
  EXPECT_EQ(parsed.zone(0).size(), original.zone(0).size());
  for (std::size_t i = 0; i < parsed.zone(0).size(); ++i) {
    EXPECT_EQ(parsed.zone(0).sample(i), original.zone(0).sample(i));
    EXPECT_EQ(parsed.zone(1).sample(i), original.zone(1).sample(i));
  }
  EXPECT_EQ(parsed.start(), original.start());
  EXPECT_EQ(parsed.step(), original.step());
}

TEST(CsvIo, RejectsMalformedInput) {
  {
    std::istringstream in("");
    EXPECT_THROW(read_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("not,a,header\n0,1,2\n");
    EXPECT_THROW(read_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("time,a\n0,0.3\n");  // only one data row
    EXPECT_THROW(read_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("time,a\n0,0.3\n300,0.3\n700,0.3\n");  // irregular
    EXPECT_THROW(read_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("time,a\n0,0.3\n300,zebra\n");
    EXPECT_THROW(read_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("time,a\n0,0.3,0.4\n300,0.3\n");  // extra field
    EXPECT_THROW(read_csv(in), std::runtime_error);
  }
}

TEST(CsvIo, RejectsDuplicateAndEmptyZoneNames) {
  {
    std::istringstream in("time,us-east,us-east\n0,0.3,0.4\n300,0.3,0.4\n");
    try {
      read_csv(in);
      FAIL() << "duplicate zone name accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    }
  }
  {
    std::istringstream in("time,a,\n0,0.3,0.4\n300,0.3,0.4\n");
    EXPECT_THROW(read_csv(in), std::runtime_error);
  }
}

TEST(CsvIo, RejectsNanAndNegativePricesWithLineNumbers) {
  {
    std::istringstream in("time,a\n0,0.3\n300,nan\n");
    try {
      read_csv(in);
      FAIL() << "NaN price accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    }
  }
  {
    std::istringstream in("time,a\n0,inf\n300,0.3\n");
    EXPECT_THROW(read_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("time,a\n0,0.3\n300,-0.27\n");
    try {
      read_csv(in);
      FAIL() << "negative price accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("negative"), std::string::npos);
    }
  }
}

TEST(CsvIo, TypedColumnGroupsRowsIntoPerTypeLanes) {
  std::istringstream in(
      "time,instance_type,us-east-1a,us-east-1b\n"
      "0,cc2.8xlarge,0.270,0.271\n"
      "0,m1.small,0.027,0.028\n"
      "300,cc2.8xlarge,0.275,0.270\n"
      "300,m1.small,0.027,0.029\n");
  const ZoneTraceSet parsed = read_csv(in);
  ASSERT_EQ(parsed.num_zones(), 4u);
  // Type-major in first-appearance order, "<type>/<zone>" lane names.
  EXPECT_EQ(parsed.zone_name(0), "cc2.8xlarge/us-east-1a");
  EXPECT_EQ(parsed.zone_name(1), "cc2.8xlarge/us-east-1b");
  EXPECT_EQ(parsed.zone_name(2), "m1.small/us-east-1a");
  EXPECT_EQ(parsed.zone_name(3), "m1.small/us-east-1b");
  EXPECT_EQ(parsed.zone(0).sample(1), Money::parse("0.275"));
  EXPECT_EQ(parsed.zone(3).sample(1), Money::parse("0.029"));
  EXPECT_EQ(parsed.start(), 0);
  EXPECT_EQ(parsed.step(), 300);
}

TEST(CsvIo, RejectsMixedTypedAndUntypedRowsWithLineNumbers) {
  {
    // Untyped row (no type field) inside a typed file.
    std::istringstream in(
        "time,instance_type,a\n"
        "0,cc2.8xlarge,0.270\n"
        "300,0.275\n"
        "600,cc2.8xlarge,0.270\n");
    try {
      read_csv(in);
      FAIL() << "untyped row in typed file accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("untyped row"), std::string::npos)
          << e.what();
    }
  }
  {
    // Typed row inside an untyped file.
    std::istringstream in(
        "time,a\n"
        "0,0.270\n"
        "300,cc2.8xlarge,0.275\n");
    try {
      read_csv(in);
      FAIL() << "typed row in untyped file accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("typed row"), std::string::npos)
          << e.what();
    }
  }
  {
    // Empty type field.
    std::istringstream in("time,instance_type,a\n0,,0.270\n300,,0.275\n");
    try {
      read_csv(in);
      FAIL() << "empty instance_type accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("empty instance_type"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CsvIo, RejectsTypesOnDifferentTimeGrids) {
  // m1.small is missing its t=300 row.
  std::istringstream in(
      "time,instance_type,a\n"
      "0,cc2.8xlarge,0.270\n"
      "0,m1.small,0.027\n"
      "300,cc2.8xlarge,0.275\n"
      "600,cc2.8xlarge,0.270\n"
      "600,m1.small,0.028\n");
  try {
    read_csv(in);
    FAIL() << "mismatched per-type time grids accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different time grid"),
              std::string::npos)
        << e.what();
  }
}

TEST(CsvIo, RejectsNonMonotoneTimestampsWithLineNumbers) {
  for (const char* body : {"time,a\n0,0.3\n300,0.3\n200,0.3\n",   // decreasing
                           "time,a\n0,0.3\n300,0.3\n300,0.3\n",   // repeated
                           "time,a\n0,0.3\n-300,0.3\n"}) {        // row 2 back
    std::istringstream in(body);
    try {
      read_csv(in);
      FAIL() << "non-monotone timestamps accepted: " << body;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("non-monotone"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
    }
  }
}

// --- Windows ------------------------------------------------------------------------

TEST(Windows, EvenlySpacedAndInBounds) {
  const SimTime w0 = 0, w1 = 30 * kDay;
  const Duration span = 30 * kHour, history = 2 * kDay;
  const auto starts = experiment_starts(w0, w1, span, history, 80);
  ASSERT_EQ(starts.size(), 80u);
  EXPECT_GE(starts.front(), w0 + history - kPriceStep);
  EXPECT_LE(starts.back() + span, w1 + kPriceStep);
  for (std::size_t i = 1; i < starts.size(); ++i)
    EXPECT_GT(starts[i], starts[i - 1]);
  for (SimTime t : starts) EXPECT_EQ(t % kPriceStep, 0);
}

TEST(Windows, SingleExperiment) {
  const auto starts = experiment_starts(0, 10 * kDay, kDay, kDay, 1);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], kDay);
}

TEST(Windows, RejectsWindowTooSmall) {
  EXPECT_THROW(experiment_starts(0, kDay, kDay, kDay, 2), CheckFailure);
  EXPECT_THROW(experiment_starts(0, kDay, kDay, 0, 0), CheckFailure);
}

// --- Availability --------------------------------------------------------------------

TEST(Availability, SegmentsMergeAdjacentStatus) {
  const PriceSeries s =
      step_series({{0.3, 2}, {0.3, 2}, {1.0, 2}, {0.3, 2}});
  const auto segs =
      availability_segments(s, Money::cents(81), 0, s.end());
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_TRUE(segs[0].up);
  EXPECT_EQ(segs[0].length(), 4 * kPriceStep);
  EXPECT_FALSE(segs[1].up);
  EXPECT_TRUE(segs[2].up);
}

TEST(Availability, FractionExact) {
  const PriceSeries s = step_series({{0.3, 3}, {1.0, 1}});
  EXPECT_DOUBLE_EQ(availability_fraction(s, Money::cents(81), 0, s.end()),
                   0.75);
  // Bid at exactly the price counts as up (B >= S).
  EXPECT_DOUBLE_EQ(availability_fraction(s, Money::dollars(0.30), 0, s.end()),
                   0.75);
  EXPECT_DOUBLE_EQ(availability_fraction(s, Money::dollars(0.29), 0, s.end()),
                   0.0);
}

TEST(Availability, CombinedIsAnyUp) {
  const ZoneTraceSet traces = testing::zones({
      step_series({{0.3, 1}, {1.0, 1}, {1.0, 1}, {1.0, 1}}),
      step_series({{1.0, 1}, {0.3, 1}, {1.0, 1}, {1.0, 1}}),
  });
  const Money bid = Money::cents(81);
  EXPECT_DOUBLE_EQ(combined_availability(traces, bid, 0, traces.end()), 0.5);
  EXPECT_DOUBLE_EQ(mean_zones_up(traces, bid, 0, traces.end()), 0.5);
  const auto segs = combined_segments(traces, bid, 0, traces.end());
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_TRUE(segs[0].up);
  EXPECT_EQ(segs[0].length(), 2 * kPriceStep);
}

TEST(Availability, CombinedNeverBelowBestSingle) {
  const ZoneTraceSet traces = paper_traces(11).window(0, 7 * kDay);
  for (Money bid : {Money::cents(47), Money::cents(81)}) {
    double best = 0.0;
    for (std::size_t z = 0; z < traces.num_zones(); ++z)
      best = std::max(best, availability_fraction(traces.zone(z), bid, 0,
                                                  traces.end()));
    EXPECT_GE(combined_availability(traces, bid, 0, traces.end()),
              best - 1e-12);
  }
}

TEST(Availability, AsciiBar) {
  const PriceSeries s = step_series({{0.3, 2}, {1.0, 2}});
  const auto segs = availability_segments(s, Money::cents(81), 0, s.end());
  EXPECT_EQ(ascii_bar(segs, kPriceStep), "##..");
}

// --- Synthetic generator ---------------------------------------------------------------

TEST(Synthetic, DeterministicBySeed) {
  const ZoneTraceSet a = paper_traces(5);
  const ZoneTraceSet b = paper_traces(5);
  for (std::size_t z = 0; z < a.num_zones(); ++z)
    for (std::size_t i = 0; i < 2000; ++i)
      EXPECT_EQ(a.zone(z).sample(i), b.zone(z).sample(i));
}

/// Order-sensitive digest of every sample of every zone.
std::uint64_t trace_digest(const ZoneTraceSet& t) {
  HashStream h;
  for (std::size_t z = 0; z < t.num_zones(); ++z) {
    h.u64(t.zone(z).size());
    for (const Money m : t.zone(z).samples()) h.i64(m.micros());
  }
  return h.digest();
}

// Every sample of the paper trace and of two ensemble replications'
// trimmed high-window traces hash to recorded digests: the generator's
// output is pinned across builds and refactors, not just within a process.
TEST(Synthetic, TracesArePinned) {
  EXPECT_EQ(trace_digest(paper_traces(42)), 0x8fd2f7e6629bb216ULL);
  const SyntheticTraceSpec high =
      trimmed_spec(paper_trace_spec(0), window_end(VolatilityWindow::kHigh));
  const ReplicationSeeder seeder(42);
  const std::uint64_t want[] = {0xe78ff69f838a2cb7ULL, 0x7c7e4b6169a0fe42ULL};
  for (std::uint64_t r = 0; r < 2; ++r) {
    SyntheticTraceSpec spec = high;
    spec.seed = seeder.seed(r, SeedDomain::kTrace);
    EXPECT_EQ(trace_digest(generate_traces(spec)), want[r]) << "r=" << r;
  }
}

using Cut = std::pair<SimTime, SimTime>;

/// Asserts that each span [from, until) of `spec` is the slice of `full`
/// (generate_traces(spec)) it names, widened to the grid and clamped.
void expect_spans_are_slices(const SyntheticTraceSpec& spec,
                             const ZoneTraceSet& full,
                             const std::vector<Cut>& cuts) {
  const SimTime end = full.end();
  for (const auto& [from, until] : cuts) {
    const ZoneTraceSet span = generate_traces(spec, from, until);
    const SimTime want_start = price_step_floor(std::max<SimTime>(from, 0));
    const SimTime want_end =
        until >= end ? end : price_step_floor(until + kPriceStep - 1);
    ASSERT_EQ(span.num_zones(), full.num_zones());
    ASSERT_EQ(span.start(), want_start) << from;
    ASSERT_EQ(span.end(), want_end) << until;
    const auto first = static_cast<std::size_t>(want_start / kPriceStep);
    for (std::size_t z = 0; z < full.num_zones(); ++z) {
      const auto slice =
          full.zone(z).samples().subspan(first, span.zone(z).size());
      const auto got = span.zone(z).samples();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), slice.begin()))
          << "seed " << spec.seed << " zone " << z << " [" << from << ","
          << until << ")";
    }
  }
}

/// A four-month spec whose regimes and spikes can be read off its prices:
/// calm prices sit near $0.50, high ones near $1.50, spikes at $2.00 and
/// up. December switches regime and spikes often, with long spikes;
/// January is calm only with no spike starts, so any spike seen in it
/// began in December; February switches with no spikes, so every switch
/// shows; March spikes again.
SyntheticTraceSpec readable_spec() {
  ZoneMonthParams switching;
  switching.calm = {0.50, 0.01, 0.8, 0.2};
  switching.high = {1.50, 0.01, 0.8, 0.3};
  switching.high_fraction = 0.4;
  switching.calm_mean_dwell = 3 * kHour;
  switching.spikes = {0.0, 2.0, 3.0, 6 * kHour};
  ZoneMonthParams dec = switching;
  dec.spikes.per_day_rate = 4.0;
  ZoneMonthParams jan = switching;
  jan.high_fraction = 0.0;
  ZoneMonthParams mar = switching;
  mar.spikes.per_day_rate = 2.0;
  SyntheticTraceSpec spec;
  spec.params = {std::vector<ZoneMonthParams>(spec.num_zones, dec),
                 std::vector<ZoneMonthParams>(spec.num_zones, jan),
                 std::vector<ZoneMonthParams>(spec.num_zones, switching),
                 std::vector<ZoneMonthParams>(spec.num_zones, mar)};
  return spec;
}

/// readable_spec()'s price bands: 0 calm, 1 high, 2 spiking.
int band(Money price) {
  return price < Money::dollars(1.0) ? 0 : price < Money::dollars(2.0) ? 1 : 2;
}

// A span of the trace is the full trace's slice, sample for sample, over
// many seeds and every kind of cut: the first step, a span with no regime
// switch before it, month edges, the forced $20.02 spike straddling either
// end, a one-step span, the last step, cuts off the sampling grid, and
// bounds past either end of the trace (clamped); every span an ensemble
// replication of the high window reads; and, on a spec whose state shows
// in its prices, spans starting inside a spike that began before them, on
// and right after a regime switch, and on the first step of a month whose
// spike rate differs from the month before.
TEST(Synthetic, SpanEqualsTheFullTraceSliced) {
  const SyntheticTraceSpec low =
      trimmed_spec(paper_trace_spec(0), window_end(VolatilityWindow::kLow));
  ASSERT_EQ(low.forced_spikes.size(), 1u);
  const SimTime spike = low.forced_spikes[0].start;
  const SimTime spike_end = spike + low.forced_spikes[0].duration;
  const SimTime jan = month_start(kHighVolatilityMonth);
  const SimTime mar = month_start(kLowVolatilityMonth);
  const SimTime end = month_end(kLowVolatilityMonth);
  const std::vector<Cut> cuts = {
      {0, end},
      {0, kPriceStep},
      {kPriceStep, 3 * kHour},
      {jan, month_end(kHighVolatilityMonth)},
      {jan - kPriceStep, jan + kPriceStep},
      {mar - 2 * kDay, mar + 30 * kHour},
      {spike + kHour, spike_end + kDay},
      {spike - 2 * kDay, spike + kHour},
      {spike + 2 * kHour, spike + 3 * kHour},
      {day_start(kHighVolatilityMonth, 10) + 7 * kHour,
       day_start(kHighVolatilityMonth, 10) + 7 * kHour + kPriceStep},
      {end - kPriceStep, end},
      {day_start(kHighVolatilityMonth, 20) + 17,
       day_start(kHighVolatilityMonth, 23) + 1},
      {-kDay, kDay},
      {end - kDay, kNever},
  };
  const ReplicationSeeder seeder(42);
  for (std::uint64_t r = 0; r < 24; ++r) {
    SyntheticTraceSpec spec = low;
    spec.seed = seeder.seed(r, SeedDomain::kTrace);
    const ZoneTraceSet full = generate_traces(spec);
    ASSERT_EQ(full.end(), end);
    ASSERT_NO_FATAL_FAILURE(expect_spans_are_slices(spec, full, cuts));
  }

  // The ensemble's own spans: history start to one step past the deadline
  // of each of the 80 experiment starts of the high window.
  const EnsembleSpec ensemble;
  std::vector<Cut> spans;
  for (const SimTime start :
       Scenario{ensemble.window, ensemble.slack_fraction,
                ensemble.checkpoint_cost, ensemble.starts_grid}
           .starts()) {
    const Experiment e = Experiment::paper(start, ensemble.slack_fraction,
                                           ensemble.checkpoint_cost);
    spans.emplace_back(start - e.history_span, e.deadline_time() + kPriceStep);
  }
  ASSERT_EQ(spans.size(), 80u);
  const SyntheticTraceSpec high =
      trimmed_spec(paper_trace_spec(0), window_end(ensemble.window));
  for (std::uint64_t r = 0; r < 4; ++r) {
    SyntheticTraceSpec spec = high;
    spec.seed = seeder.seed(r, SeedDomain::kTrace);
    ASSERT_NO_FATAL_FAILURE(
        expect_spans_are_slices(spec, generate_traces(spec), spans));
  }

  const auto step_of = [](SimTime t) {
    return static_cast<std::size_t>(t / kPriceStep);
  };
  const auto time_of = [](std::size_t i) {
    return static_cast<SimTime>(i) * kPriceStep;
  };
  std::size_t carried_spikes = 0;
  std::size_t switches = 0;
  for (std::uint64_t r = 0; r < 8; ++r) {
    SyntheticTraceSpec spec = readable_spec();
    spec.seed = seeder.seed(r, SeedDomain::kTrace);
    const ZoneTraceSet full = generate_traces(spec);
    std::vector<Cut> edges = {
        {month_start(1), month_start(1) + 2 * kHour},
        {month_start(1) + kPriceStep, month_start(1) + 2 * kHour},
        {month_start(3) - kPriceStep, month_start(3) + 2 * kHour},
        {month_start(3), month_start(3) + 2 * kHour},
    };
    for (std::size_t z = 0; z < full.num_zones(); ++z) {
      const auto p = full.zone(z).samples();
      // A January step (past the first) inside a spike: January starts
      // none, so the spike began in December, before the span.
      for (std::size_t i = step_of(month_start(1)) + 1;
           i < step_of(month_end(1)); ++i) {
        if (band(p[i]) == 2 && band(p[i - 1]) == 2) {
          edges.emplace_back(time_of(i), time_of(i) + 2 * kHour);
          ++carried_spikes;
          break;
        }
      }
      // A February regime switch: a move between the calm and high bands.
      for (std::size_t i = step_of(month_start(2)) + 1;
           i < step_of(month_end(2)); ++i) {
        if (band(p[i]) != 2 && band(p[i - 1]) != 2 &&
            band(p[i]) != band(p[i - 1])) {
          edges.emplace_back(time_of(i), time_of(i) + 2 * kHour);
          edges.emplace_back(time_of(i + 1), time_of(i + 1) + 2 * kHour);
          ++switches;
          break;
        }
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_spans_are_slices(spec, full, edges));
  }
  EXPECT_GT(carried_spikes, 0u);
  EXPECT_GT(switches, 0u);
}

TEST(Synthetic, SpanRejectsAnEmptySpan) {
  const SyntheticTraceSpec spec = paper_trace_spec(1);
  EXPECT_THROW(generate_traces(spec, kDay, kDay), CheckFailure);
  EXPECT_THROW(generate_traces(spec, trace_span(), kNever), CheckFailure);
  EXPECT_THROW(generate_traces(spec, kDay, -kDay), CheckFailure);
}

TEST(Synthetic, SeedsProduceDifferentPaths) {
  const ZoneTraceSet a = paper_traces(5);
  const ZoneTraceSet b = paper_traces(6);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < 2000; ++i)
    if (a.zone(0).sample(i) != b.zone(0).sample(i)) ++diffs;
  EXPECT_GT(diffs, 100u);
}

TEST(Synthetic, ZonesAreDistinct) {
  const ZoneTraceSet t = paper_traces(5);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < 2000; ++i)
    if (t.zone(0).sample(i) != t.zone(1).sample(i)) ++diffs;
  EXPECT_GT(diffs, 100u);
}

TEST(Synthetic, RespectsFloorAndSpikeCeiling) {
  const ZoneTraceSet t = paper_traces(7);
  const Money floor = Money::cents(27);
  const Money forced = Money::dollars(20.02);
  for (std::size_t z = 0; z < t.num_zones(); ++z) {
    EXPECT_GE(t.zone(z).min_price(), floor);
    EXPECT_LE(t.zone(z).max_price(), forced);
  }
}

TEST(Synthetic, CoversFullCalendar) {
  const ZoneTraceSet t = paper_traces(5);
  EXPECT_EQ(t.start(), 0);
  EXPECT_EQ(t.end(), trace_span());
}

TEST(Synthetic, ForcedSpikeIsPresent) {
  const ZoneTraceSet t = paper_traces(42);
  const SimTime spike_mid =
      day_start(kLowVolatilityMonth, 13) + 18 * kHour + 4 * kHour;
  EXPECT_EQ(t.price(0, spike_mid), Money::dollars(20.02));
  // Only zone 0 spikes.
  EXPECT_LT(t.price(1, spike_mid), Money::dollars(3.06));
  // Before and after, zone 0 is calm again.
  EXPECT_LT(t.price(0, spike_mid - 6 * kHour), Money::dollars(3.06));
  EXPECT_LT(t.price(0, spike_mid + 7 * kHour), Money::dollars(3.06));
}

TEST(Synthetic, LowVolatilityWindowMatchesPaperStatistics) {
  const ZoneTraceSet t = paper_traces(42);
  // Zones 1 and 2 carry no forced spike; their March 2013 stats must sit
  // in the paper's band: mean ~$0.30, variance < ~0.015.
  for (std::size_t z : {std::size_t{1}, std::size_t{2}}) {
    const PriceSeries w = t.zone(z).window(month_start(kLowVolatilityMonth),
                                           month_end(kLowVolatilityMonth));
    const std::vector<double> xs = w.to_doubles();
    EXPECT_NEAR(mean(xs), 0.30, 0.04);
    // The paper reports var < 0.01 for March 2013 yet also reports spikes
    // in that window; our generator keeps the variance small but honest
    // about the spikes (see DESIGN.md).
    EXPECT_LT(variance(xs), 0.03);
  }
}

TEST(Synthetic, HighVolatilityWindowMatchesPaperStatistics) {
  const ZoneTraceSet t = paper_traces(42);
  const SimTime from = month_start(kHighVolatilityMonth);
  const SimTime to = month_end(kHighVolatilityMonth);
  double prev_mean = 0.0;
  for (std::size_t z = 0; z < 3; ++z) {
    const std::vector<double> xs = t.zone(z).window(from, to).to_doubles();
    const double m = mean(xs);
    EXPECT_GT(m, 0.55);
    EXPECT_LT(m, 1.45);
    EXPECT_GT(m, prev_mean);  // zone means ascend, like $0.70/$0.90/$1.12
    prev_mean = m;
    EXPECT_GT(variance(xs), 0.2);  // genuinely volatile
  }
}

TEST(Synthetic, PricesArePiecewiseConstant) {
  // Published prices must hold between changes: consecutive-sample change
  // frequency well below 1 (Rising Edge depends on this).
  const ZoneTraceSet t = paper_traces(42);
  const PriceSeries w = t.zone(1).window(month_start(kLowVolatilityMonth),
                                         month_end(kLowVolatilityMonth));
  std::size_t changes = 0;
  for (std::size_t i = 1; i < w.size(); ++i)
    if (w.sample(i) != w.sample(i - 1)) ++changes;
  EXPECT_LT(static_cast<double>(changes) / static_cast<double>(w.size()),
            0.25);
}

TEST(Synthetic, GeneratorValidatesSpec) {
  SyntheticTraceSpec spec = paper_trace_spec(1);
  spec.params[0].pop_back();  // ragged params row
  EXPECT_THROW(generate_traces(spec), CheckFailure);
  SyntheticTraceSpec empty = paper_trace_spec(1);
  empty.params.clear();
  EXPECT_THROW(generate_traces(empty), CheckFailure);
}

// --- VAR ---------------------------------------------------------------------------------

TEST(Var, RecoversDiagonalAr1) {
  // Two independent AR(1) series: cross coefficients must be near zero and
  // own coefficients near the true phi.
  Rng rng(31);
  std::vector<std::vector<double>> series(2, std::vector<double>(4000));
  double x = 0.0, y = 0.0;
  for (std::size_t i = 0; i < 4000; ++i) {
    x = 0.8 * x + rng.normal();
    y = 0.6 * y + rng.normal();
    series[0][i] = x;
    series[1][i] = y;
  }
  const VarFit fit = fit_var(series, 1);
  EXPECT_NEAR(fit.coefficients[0](0, 0), 0.8, 0.05);
  EXPECT_NEAR(fit.coefficients[0](1, 1), 0.6, 0.05);
  EXPECT_NEAR(fit.coefficients[0](0, 1), 0.0, 0.05);
  EXPECT_NEAR(fit.coefficients[0](1, 0), 0.0, 0.05);

  const CrossZoneEffects effects = cross_zone_effects(fit);
  EXPECT_GT(effects.within_to_cross_ratio, 5.0);
}

TEST(Var, DetectsCrossDependence) {
  // y depends on lagged x: the cross coefficient must be recovered.
  Rng rng(37);
  std::vector<std::vector<double>> series(2, std::vector<double>(4000));
  double x = 0.0, y = 0.0;
  for (std::size_t i = 0; i < 4000; ++i) {
    const double nx = 0.5 * x + rng.normal();
    y = 0.3 * y + 0.4 * x + rng.normal();
    x = nx;
    series[0][i] = x;
    series[1][i] = y;
  }
  const VarFit fit = fit_var(series, 1);
  EXPECT_NEAR(fit.coefficients[0](1, 0), 0.4, 0.07);
}

TEST(Var, AicPrefersTrueLagOrder) {
  // AR(2) process: AIC at lag >= 2 must beat lag 1.
  Rng rng(41);
  std::vector<std::vector<double>> series(1, std::vector<double>(6000));
  double x1 = 0.0, x2 = 0.0;
  for (std::size_t i = 0; i < 6000; ++i) {
    const double x = 0.5 * x1 - 0.4 * x2 + rng.normal();
    x2 = x1;
    x1 = x;
    series[0][i] = x;
  }
  const VarFit best = fit_var_aic(series, 4);
  EXPECT_GE(best.lag_order, 2u);
}

TEST(Var, EffectiveSamplesAndShapes) {
  Rng rng(43);
  std::vector<std::vector<double>> series(3, std::vector<double>(500));
  for (auto& s : series)
    for (auto& v : s) v = rng.normal();
  const VarFit fit = fit_var(series, 2);
  EXPECT_EQ(fit.effective_samples, 498u);
  EXPECT_EQ(fit.coefficients.size(), 2u);
  EXPECT_EQ(fit.coefficients[0].rows(), 3u);
  EXPECT_EQ(fit.intercept.size(), 3u);
  EXPECT_EQ(fit.residual_cov.rows(), 3u);
}

TEST(Var, RejectsBadInput) {
  std::vector<std::vector<double>> tiny(2, std::vector<double>(4));
  EXPECT_THROW(fit_var(tiny, 2), CheckFailure);
  EXPECT_THROW(fit_var({}, 1), CheckFailure);
}

TEST(Var, ToSeriesExtractsZones) {
  const ZoneTraceSet traces =
      testing::zones({constant_series(0.3, 5), constant_series(0.5, 5)});
  const auto series = to_series(traces);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[1][0], 0.5);
}

TEST(Var, PaperTracesShowNearIndependentZones) {
  // The headline Section 3.1 property on one month of synthetic data.
  const ZoneTraceSet month = paper_traces(42).window(
      month_start(kHighVolatilityMonth), month_end(kHighVolatilityMonth));
  const VarFit fit = fit_var(to_series(month), 2);
  const CrossZoneEffects effects = cross_zone_effects(fit);
  EXPECT_GT(effects.within_to_cross_ratio, 10.0);
}

}  // namespace
}  // namespace redspot
