#include "trace/csv_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"
#include "common/fs.hpp"

namespace redspot {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("trace CSV line " + std::to_string(line) + ": " +
                           what);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      out.push_back(s.substr(pos));
      return out;
    }
    out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
}

}  // namespace

void write_csv(std::ostream& os, const ZoneTraceSet& traces) {
  os << "time";
  for (std::size_t z = 0; z < traces.num_zones(); ++z)
    os << ',' << traces.zone_name(z);
  os << '\n';
  const PriceSeries& first = traces.zone(0);
  for (std::size_t i = 0; i < first.size(); ++i) {
    os << first.time_of(i);
    for (std::size_t z = 0; z < traces.num_zones(); ++z) {
      const Money m = traces.zone(z).sample(i);
      // Dollars with three decimals (EC2 price grid).
      os << ',' << m.to_double();
    }
    os << '\n';
  }
}

void write_csv_file(const std::string& path, const ZoneTraceSet& traces) {
  // Render in memory, then publish atomically (write-temp → fsync →
  // rename): a crash mid-export can never leave a torn CSV at `path`.
  std::ostringstream buf;
  write_csv(buf, traces);
  if (!buf) throw std::runtime_error("write failed: " + path);
  atomic_write_file(path, buf.str());
}

namespace {

// One lane block of a trace CSV: the whole file when untyped, one
// instance type's rows when the header carries `instance_type`.
struct LaneBlock {
  std::string type;  // empty for an untyped file
  std::vector<std::vector<Money>> cols;
  SimTime start = 0;
  Duration step = 0;
  SimTime prev_time = 0;
  std::size_t rows = 0;
};

}  // namespace

ZoneTraceSet read_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) fail(1, "missing header");
  std::vector<std::string> header = split_commas(line);
  const bool typed = header.size() >= 2 && header[1] == "instance_type";
  // Index of the first price field in every row (after time, and after
  // the per-row type when the file is typed).
  const std::size_t first_price = typed ? 2 : 1;
  if (header.size() < first_price + 1 || header[0] != "time")
    fail(1, typed ? "header must be 'time,instance_type,<zone>,...'"
                  : "header must be 'time,<zone>,...'");
  const std::size_t num_zones = header.size() - first_price;
  std::vector<std::string> names(header.begin() + first_price, header.end());
  for (std::size_t z = 0; z < names.size(); ++z) {
    if (names[z].empty()) fail(1, "empty zone name in header");
    for (std::size_t other = 0; other < z; ++other) {
      if (names[other] == names[z])
        fail(1, "duplicate zone name '" + names[z] + "'");
    }
  }

  std::vector<LaneBlock> blocks;
  if (!typed) {
    blocks.emplace_back();
    blocks[0].cols.resize(num_zones);
  }
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_commas(line);
    const std::size_t want = num_zones + first_price;
    if (fields.size() != want) {
      // A file may be typed or untyped, never both — the off-by-one
      // arity is almost always a row of the other flavor, so say so.
      if (typed && fields.size() == want - 1)
        fail(line_no,
             "untyped row in a typed file (header has 'instance_type')");
      if (!typed && fields.size() == want + 1)
        fail(line_no,
             "typed row in an untyped file (header has no 'instance_type' "
             "column)");
      fail(line_no, "expected " + std::to_string(want) + " fields");
    }
    SimTime t;
    try {
      t = std::stoll(fields[0]);
    } catch (const std::exception&) {
      fail(line_no, "bad time '" + fields[0] + "'");
    }
    LaneBlock* blk;
    if (typed) {
      const std::string& type = fields[1];
      if (type.empty()) fail(line_no, "empty instance_type");
      blk = nullptr;
      for (LaneBlock& b : blocks) {
        if (b.type == type) {
          blk = &b;
          break;
        }
      }
      if (blk == nullptr) {
        blocks.emplace_back();
        blk = &blocks.back();
        blk->type = type;
        blk->cols.resize(num_zones);
      }
    } else {
      blk = &blocks[0];
    }
    // Time-grid checks are per block: typed files interleave the types'
    // rows, so only rows of the same type must advance on a fixed step.
    if (blk->rows == 0) {
      blk->start = t;
    } else if (t <= blk->prev_time) {
      fail(line_no, "non-monotone time " + std::to_string(t) + " after " +
                        std::to_string(blk->prev_time));
    } else if (blk->rows == 1) {
      blk->step = t - blk->prev_time;
    } else if (t - blk->prev_time != blk->step) {
      fail(line_no, "irregular time step");
    }
    blk->prev_time = t;
    for (std::size_t z = 0; z < num_zones; ++z) {
      Money price;
      try {
        // Money::parse rejects non-numeric text (including NaN/inf
        // spellings, which have no digits to parse).
        price = Money::parse(fields[z + first_price]);
      } catch (const CheckFailure&) {
        fail(line_no, "bad price '" + fields[z + first_price] + "'");
      }
      if (price < Money())
        fail(line_no, "negative price '" + fields[z + first_price] + "'");
      blk->cols[z].push_back(price);
    }
    ++blk->rows;
  }
  if (blocks.empty()) fail(line_no, "need at least two data rows");
  for (const LaneBlock& b : blocks) {
    if (b.rows < 2)
      fail(line_no, typed ? "instance type '" + b.type +
                                "' needs at least two data rows"
                          : "need at least two data rows");
  }
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    const LaneBlock& b = blocks[i];
    if (b.start != blocks[0].start || b.step != blocks[0].step ||
        b.rows != blocks[0].rows)
      fail(line_no, "instance type '" + b.type +
                        "' covers a different time grid than '" +
                        blocks[0].type + "'");
  }

  // Lanes are type-major in first-appearance order, named "<type>/<zone>"
  // (plain "<zone>" when untyped).
  std::vector<std::string> lane_names;
  std::vector<PriceSeries> series;
  lane_names.reserve(blocks.size() * num_zones);
  series.reserve(blocks.size() * num_zones);
  for (LaneBlock& b : blocks) {
    for (std::size_t z = 0; z < num_zones; ++z) {
      lane_names.push_back(typed ? b.type + "/" + names[z] : names[z]);
      series.emplace_back(b.start, b.step, std::move(b.cols[z]));
    }
  }
  return ZoneTraceSet(std::move(lane_names), std::move(series));
}

ZoneTraceSet read_csv_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open: " + path);
  return read_csv(f);
}

}  // namespace redspot
