// Trace calendar.
//
// The paper's price history spans December 2012 through January 2014
// (Section 5). Simulated time is seconds since the trace epoch,
// 2012-12-01 00:00 UTC; this header maps calendar months of that span to
// [start, end) windows so experiments can name "March 2013" (the
// low-volatility window) or "January 2013" (the high-volatility window).
#pragma once

#include <cstddef>
#include <string>

#include "common/time.hpp"

namespace redspot {

/// Number of calendar months in the trace span (Dec 2012 .. Jan 2014).
inline constexpr std::size_t kTraceMonths = 14;

/// Month of the low-volatility evaluation window (March 2013, Section 5).
inline constexpr std::size_t kLowVolatilityMonth = 3;

/// Month of the high-volatility evaluation window (January 2013, Section 5).
inline constexpr std::size_t kHighVolatilityMonth = 1;

/// Days in trace month `m` (0 = Dec 2012).
int days_in_month(std::size_t m);

/// Start of trace month `m`, seconds since the epoch.
SimTime month_start(std::size_t m);

/// One past the end of trace month `m`.
SimTime month_end(std::size_t m);

/// Total length of the trace span.
Duration trace_span();

/// Human-readable name, e.g. "Mar 2013".
std::string month_name(std::size_t m);

/// Start of a given day-of-month (1-based) within trace month `m`.
SimTime day_start(std::size_t m, int day_of_month);

}  // namespace redspot
