// CSV import/export for trace sets.
//
// Format (one header line, then one row per sampling step):
//   time,<zone-name>,<zone-name>,...
//   0,0.270,0.271,0.270
//   300,0.270,0.275,0.270
// Times are seconds since the trace epoch and must advance by a constant
// step; prices are dollars. Real EC2 price histories resampled to a fixed
// grid can be dropped in through this path.
//
// Price histories of several instance types add an optional
// `instance_type` column right after `time`; every data row then carries
// the type whose prices it holds, and rows group into one lane block per
// type:
//   time,instance_type,<zone-name>,...
//   0,cc2.8xlarge,0.270,0.271
//   0,m1.small,0.027,0.028
//   300,cc2.8xlarge,0.275,0.270
// Lanes come back named "<type>/<zone>", type-major in first-appearance
// order; all types must cover the same time grid. A file may be typed or
// untyped, never both: a row with the wrong arity for its header is
// rejected with a line-numbered error.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/zone_traces.hpp"

namespace redspot {

/// Writes `traces` as CSV.
void write_csv(std::ostream& os, const ZoneTraceSet& traces);
void write_csv_file(const std::string& path, const ZoneTraceSet& traces);

/// Parses a trace-set CSV. Throws std::runtime_error with a line-numbered
/// message on malformed input.
ZoneTraceSet read_csv(std::istream& is);
ZoneTraceSet read_csv_file(const std::string& path);

}  // namespace redspot
