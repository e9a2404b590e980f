#include "core/adaptive/history_stats.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/check.hpp"

namespace redspot {

HistoryStats::HistoryStats(const ZoneTraceSet& traces, SimTime from,
                           SimTime to, std::vector<Money> bid_grid)
    : bid_grid_(std::move(bid_grid)) {
  REDSPOT_CHECK(!bid_grid_.empty());
  // Ascending threshold order (stable for duplicate bids): each sample is
  // "up" for the contiguous sorted-bid suffix [cut_of(s), end).
  order_.resize(bid_grid_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return bid_grid_[a] < bid_grid_[b];
                   });
  sorted_thr_.resize(bid_grid_.size());
  for (std::size_t k = 0; k < order_.size(); ++k) {
    // Tolerate the micro-dollar -> double conversion (same threshold the
    // historical per-bid scan used).
    sorted_thr_[k] = bid_grid_[order_[k]].to_double() + 1e-9;
  }
  rebuild(traces, from, to);
}

std::size_t HistoryStats::cut_of(double s) const {
  return static_cast<std::size_t>(std::distance(
      sorted_thr_.begin(),
      std::lower_bound(sorted_thr_.begin(), sorted_thr_.end(), s)));
}

double HistoryStats::hours() const {
  return static_cast<double>(window_length_) / static_cast<double>(kHour);
}

void HistoryStats::rebuild(const ZoneTraceSet& traces, SimTime from,
                           SimTime to) {
  REDSPOT_CHECK_MSG(traces.num_zones() <= 64,
                    "HistoryStats keys zone subsets by a 64-bit mask");
  step_ = traces.step();
  const PriceSeries& s0 = traces.zone(0);
  from = std::max(from, s0.start());
  to = std::min(to, s0.end());
  REDSPOT_CHECK_MSG(from < to, "empty window request");
  const std::size_t lo = s0.index_of(from);
  const std::size_t hi =
      static_cast<std::size_t>((to - s0.start() + step_ - 1) / step_);

  base_.resize(traces.num_zones());
  for (std::size_t z = 0; z < traces.num_zones(); ++z)
    base_[z] = traces.zone(z).samples().data();
  series_start_ = s0.start();
  series_size_ = s0.size();
  abs_lo_ = lo;
  n_ = hi - lo;
  window_length_ = static_cast<Duration>(n_) * step_;

  const std::size_t nbids = bid_grid_.size();
  counters_.assign(base_.size(), std::vector<BidCounters>(nbids));
  first_cut_.assign(base_.size(), 0);
  zone_rows_.assign(base_.size(),
                    ZoneRows{std::vector<double>(nbids),
                             std::vector<double>(nbids),
                             std::vector<double>(nbids),
                             std::vector<double>(nbids)});
  for (std::size_t z = 0; z < base_.size(); ++z) {
    std::vector<BidCounters>& row = counters_[z];
    std::size_t prev_cut = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const Money m = base_[z][abs_lo_ + i];
      const std::size_t cut = cut_of(m.to_double());
      for (std::size_t k = cut; k < nbids; ++k) {
        ++row[k].up;
        row[k].paid_micros += m.micros();
      }
      if (i == 0) {
        first_cut_[z] = cut;
      } else if (cut < prev_cut) {  // down -> up for bids in [cut, prev_cut)
        for (std::size_t k = cut; k < prev_cut; ++k) ++row[k].starts;
      } else if (cut > prev_cut) {  // up -> down for bids in [prev_cut, cut)
        for (std::size_t k = prev_cut; k < cut; ++k) ++row[k].interrupts;
      }
      prev_cut = cut;
    }
  }
  refresh_stats();
  combined_memo_.clear();
  ++full_rebuilds_;
}

bool HistoryStats::try_advance(const ZoneTraceSet& traces, SimTime from,
                               SimTime to) {
  if (traces.num_zones() != base_.size()) return false;
  if (traces.step() != step_) return false;
  const PriceSeries& s0 = traces.zone(0);
  // A live trace grows at the right edge; as long as the storage base is
  // unchanged (pre-reserved growth) the counters slide over it exactly as
  // over a static trace. Shrinkage means different storage: rebuild.
  if (s0.start() != series_start_ || s0.size() < series_size_) return false;
  for (std::size_t z = 0; z < base_.size(); ++z)
    if (traces.zone(z).samples().data() != base_[z]) return false;

  from = std::max(from, s0.start());
  to = std::min(to, s0.end());
  if (from >= to) return false;  // let rebuild() raise the usual error
  const std::size_t lo = s0.index_of(from);
  const std::size_t hi =
      static_cast<std::size_t>((to - s0.start() + step_ - 1) / step_);
  const std::size_t old_hi = abs_lo_ + n_;
  if (lo < abs_lo_ || hi < old_hi) return false;  // backward move
  if (lo >= old_hi) return false;                 // no overlap
  if (lo == abs_lo_ && hi == old_hi) {  // same window: keep memo
    series_size_ = s0.size();
    return true;
  }

  const std::size_t nbids = bid_grid_.size();
  for (std::size_t z = 0; z < base_.size(); ++z) {
    std::vector<BidCounters>& row = counters_[z];
    const Money* s = base_[z];
    // Evict [abs_lo_, lo) with the pairs (i, i + 1): the evicted samples
    // are still readable from the borrowed trace storage.
    for (std::size_t i = abs_lo_; i < lo; ++i) {
      const std::size_t cut = cut_of(s[i].to_double());
      for (std::size_t k = cut; k < nbids; ++k) {
        --row[k].up;
        row[k].paid_micros -= s[i].micros();
      }
      const std::size_t next_cut = cut_of(s[i + 1].to_double());
      if (next_cut < cut) {
        for (std::size_t k = next_cut; k < cut; ++k) --row[k].starts;
      } else if (next_cut > cut) {
        for (std::size_t k = cut; k < next_cut; ++k) --row[k].interrupts;
      }
    }
    first_cut_[z] = cut_of(s[lo].to_double());
    // Append [old_hi, hi): the pairs (i - 1, i) join the window.
    for (std::size_t i = old_hi; i < hi; ++i) {
      const std::size_t prev_cut = cut_of(s[i - 1].to_double());
      const std::size_t cut = cut_of(s[i].to_double());
      for (std::size_t k = cut; k < nbids; ++k) {
        ++row[k].up;
        row[k].paid_micros += s[i].micros();
      }
      if (cut < prev_cut) {
        for (std::size_t k = cut; k < prev_cut; ++k) ++row[k].starts;
      } else if (cut > prev_cut) {
        for (std::size_t k = prev_cut; k < cut; ++k) ++row[k].interrupts;
      }
    }
  }
  for (CombinedEntry& e : combined_memo_) slide_combined(e, lo, hi);
  abs_lo_ = lo;
  n_ = hi - lo;
  series_size_ = s0.size();
  window_length_ = static_cast<Duration>(n_) * step_;
  refresh_stats();
  for (CombinedEntry& e : combined_memo_) refresh_combined(e);
  ++incremental_advances_;
  return true;
}

void HistoryStats::advance(const ZoneTraceSet& traces, SimTime from,
                           SimTime to) {
  if (!try_advance(traces, from, to)) rebuild(traces, from, to);
}

void HistoryStats::refresh_stats() {
  const std::size_t nbids = bid_grid_.size();
  const double h = hours();
  for (std::size_t z = 0; z < base_.size(); ++z) {
    for (std::size_t k = 0; k < nbids; ++k) {
      const BidCounters& c = counters_[z][k];
      const std::int64_t spells =
          c.starts + (k >= first_cut_[z] ? 1 : 0);
      ZoneRows& r = zone_rows_[z];
      const std::size_t b = order_[k];
      r.availability[b] =
          static_cast<double>(c.up) / static_cast<double>(n_);
      r.mean_paid_price[b] =
          c.up > 0 ? (static_cast<double>(c.paid_micros) / 1e6) /
                         static_cast<double>(c.up)
                   : 0.0;
      r.interruptions_per_hour[b] =
          h > 0 ? static_cast<double>(c.interrupts) / h : 0.0;
      r.mean_up_spell[b] =
          spells > 0 ? static_cast<double>(c.up) *
                           static_cast<double>(step_) /
                           static_cast<double>(spells)
                     : 0.0;
    }
  }
}

std::size_t HistoryStats::subset_cut(const std::vector<std::size_t>& zones,
                                     std::size_t abs_i) const {
  // Any zone up at bid B <=> the cheapest subset zone is within B.
  double m = sample_dollars(zones[0], abs_i);
  for (std::size_t j = 1; j < zones.size(); ++j)
    m = std::min(m, sample_dollars(zones[j], abs_i));
  return cut_of(m);
}

void HistoryStats::fill_combined(CombinedEntry& e) const {
  const std::size_t nbids = bid_grid_.size();
  e.up.assign(nbids, 0);
  e.outages.assign(nbids, 0);
  std::size_t prev_cut = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t cut = subset_cut(e.zones, abs_lo_ + i);
    for (std::size_t k = cut; k < nbids; ++k) ++e.up[k];
    if (i > 0) {  // any-up -> none-up for bids in [prev_cut, cut)
      for (std::size_t k = prev_cut; k < cut; ++k) ++e.outages[k];
    }
    prev_cut = cut;
  }
  e.availability.resize(nbids);
  e.outage_rate.resize(nbids);
  refresh_combined(e);
}

void HistoryStats::slide_combined(CombinedEntry& e, std::size_t lo,
                                  std::size_t hi) const {
  // The same evict/append pairs as the per-zone counters in try_advance().
  const std::size_t nbids = bid_grid_.size();
  const std::size_t old_hi = abs_lo_ + n_;
  if (abs_lo_ < lo) {
    std::size_t cut = subset_cut(e.zones, abs_lo_);
    for (std::size_t i = abs_lo_; i < lo; ++i) {
      for (std::size_t k = cut; k < nbids; ++k) --e.up[k];
      const std::size_t next_cut = subset_cut(e.zones, i + 1);
      for (std::size_t k = cut; k < next_cut; ++k) --e.outages[k];
      cut = next_cut;
    }
  }
  if (old_hi < hi) {
    std::size_t prev_cut = subset_cut(e.zones, old_hi - 1);
    for (std::size_t i = old_hi; i < hi; ++i) {
      const std::size_t cut = subset_cut(e.zones, i);
      for (std::size_t k = cut; k < nbids; ++k) ++e.up[k];
      for (std::size_t k = prev_cut; k < cut; ++k) ++e.outages[k];
      prev_cut = cut;
    }
  }
}

void HistoryStats::refresh_combined(CombinedEntry& e) const {
  const double h = hours();
  for (std::size_t k = 0; k < bid_grid_.size(); ++k) {
    e.availability[order_[k]] =
        static_cast<double>(e.up[k]) / static_cast<double>(n_);
    e.outage_rate[order_[k]] =
        h > 0 ? static_cast<double>(e.outages[k]) / h : 0.0;
  }
}

std::uint64_t HistoryStats::zone_mask(
    const std::vector<std::size_t>& zones) const {
  REDSPOT_CHECK(!zones.empty());
  std::uint64_t mask = 0;
  for (std::size_t z : zones) {
    REDSPOT_CHECK(z < base_.size());
    mask |= std::uint64_t{1} << z;
  }
  return mask;
}

const HistoryStats::CombinedEntry& HistoryStats::combined_entry(
    std::uint64_t mask) const {
  // A duplicate or reordered zone list is the same subset.
  for (const CombinedEntry& e : combined_memo_)
    if (e.mask == mask) return e;
  CombinedEntry& e = combined_memo_.emplace_back();
  e.mask = mask;
  for (std::size_t z = 0; z < base_.size(); ++z)
    if (mask & (std::uint64_t{1} << z)) e.zones.push_back(z);
  fill_combined(e);
  ++subset_fills_;
  return e;
}

HistoryStats::SubsetRows HistoryStats::subset_rows(std::uint64_t mask) const {
  REDSPOT_CHECK(mask != 0);
  REDSPOT_CHECK(base_.size() == 64 || (mask >> base_.size()) == 0);
  // A single zone's full outages are its interruptions (same pair count).
  if (std::has_single_bit(mask)) {
    const ZoneRows& r =
        zone_rows_[static_cast<std::size_t>(std::countr_zero(mask))];
    return {r.availability, r.interruptions_per_hour};
  }
  const CombinedEntry& e = combined_entry(mask);
  return {e.availability, e.outage_rate};
}

}  // namespace redspot
