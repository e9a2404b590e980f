// Trailing-history statistics for the Adaptive policy (Section 7.1).
//
// At each decision point Adaptive "simulates cost and computation for each
// permutation of B, N, and policy" over the price history. HistoryStats is
// that replay's engine room: one snapshot of the trailing window, from
// which availability, expected paid price, interruption rates, full-outage
// rates and mean up-spell lengths can be read for any (bid, zone-subset)
// without re-touching the trace.
//
// Internals (DESIGN.md §10): all per-(zone, bid) aggregates are held as
// exact integer counters — up-sample counts, paid micro-dollar sums,
// interior spell-start / interruption pair counts — filled by ONE fused
// pass per zone over the window. Because the bid thresholds are processed
// in ascending order, each sample contributes to a contiguous bid range
// [cut, end) found by binary search, so one pass covers the whole grid.
// The same counters slide under advance(): evicted and appended samples
// adjust them exactly, and integer arithmetic makes the slid state equal
// the from-scratch state bit-for-bit (property-tested). Subset statistics
// (combined availability / full-outage rate) are memoized per multi-zone
// bitmask as the same kind of exact counters — up samples and interior
// any-up -> none-up pairs per sorted bid, where a sample's cut is that of
// the cheapest subset zone — and the memo is slid per mask under
// advance(), not refilled; only a rebuild clears it. A single-zone subset
// is answered from the per-zone stats, which hold the same counts. The
// per-zone stats are kept as per-bid rows, so any subset's availability
// and outage-rate rows are handed out whole (subset_rows): a scan over the
// bid grid resolves its subset once, not once per bid.
//
// Lifetime: HistoryStats BORROWS the trace storage passed to the
// constructor and to advance() — the ZoneTraceSet must outlive it (true
// for the engine's market traces, which live for the whole run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/money.hpp"
#include "common/time.hpp"
#include "trace/zone_traces.hpp"

namespace redspot {

/// Per (zone, bid) statistics over the window.
struct ZoneBidStats {
  double availability = 0.0;     ///< fraction of samples with S <= B
  double mean_paid_price = 0.0;  ///< E[S | S <= B] in dollars (0 if never up)
  double interruptions_per_hour = 0.0;  ///< up->down transitions per hour
  double mean_up_spell = 0.0;    ///< mean length of an up-run, seconds
};

class HistoryStats {
 public:
  /// Snapshots [from, to) of `traces` and precomputes per-zone stats for
  /// every bid in `bid_grid`. Borrows `traces` (see file comment). At most
  /// 64 zones: a subset is keyed by its zone bitmask.
  HistoryStats(const ZoneTraceSet& traces, SimTime from, SimTime to,
               std::vector<Money> bid_grid);

  /// Slides the window to [from, to). When `traces` is the same storage
  /// and the window moved forward with overlap, the counters are adjusted
  /// incrementally in O(samples moved); otherwise everything is rebuilt.
  /// Either way the resulting state equals a fresh construction exactly.
  void advance(const ZoneTraceSet& traces, SimTime from, SimTime to);

  std::size_t num_zones() const { return base_.size(); }
  const std::vector<Money>& bid_grid() const { return bid_grid_; }
  Duration window_length() const { return window_length_; }

  ZoneBidStats stats(std::size_t zone, std::size_t bid_idx) const {
    REDSPOT_CHECK(zone < zone_rows_.size());
    REDSPOT_CHECK(bid_idx < bid_grid_.size());
    const ZoneRows& r = zone_rows_[zone];
    return ZoneBidStats{r.availability[bid_idx], r.mean_paid_price[bid_idx],
                        r.interruptions_per_hour[bid_idx],
                        r.mean_up_spell[bid_idx]};
  }

  /// A zone subset's statistics for every bid, indexed like bid_grid().
  struct SubsetRows {
    /// Fraction of the window during which at least one subset zone has
    /// S <= B.
    std::span<const double> availability;
    /// Any-up -> none-up transitions per hour (the events that force a
    /// rollback to the previous checkpoint). For one zone these are its
    /// interruptions: the same pair count.
    std::span<const double> outage_rate;
  };

  /// The rows of the non-empty subset whose zones are the set bits of
  /// `mask`. A multi-zone subset's first request fills its memo entry in
  /// one window pass; later windows slide it. The spans stay valid until
  /// the next advance().
  SubsetRows subset_rows(std::uint64_t mask) const;

  /// Bitmask of a non-empty zone list (order and duplicates do not matter).
  std::uint64_t zone_mask(const std::vector<std::size_t>& zones) const;

  double combined_availability(const std::vector<std::size_t>& zones,
                               std::size_t bid_idx) const {
    REDSPOT_CHECK(bid_idx < bid_grid_.size());
    return subset_rows(zone_mask(zones)).availability[bid_idx];
  }
  double full_outage_rate(const std::vector<std::size_t>& zones,
                          std::size_t bid_idx) const {
    REDSPOT_CHECK(bid_idx < bid_grid_.size());
    return subset_rows(zone_mask(zones)).outage_rate[bid_idx];
  }

  // Introspection for tests and benchmarks.
  std::uint64_t full_rebuilds() const { return full_rebuilds_; }
  std::uint64_t incremental_advances() const { return incremental_advances_; }
  /// Multi-zone memo entries filled from scratch (the rest were slid).
  std::uint64_t subset_fills() const { return subset_fills_; }

 private:
  /// Exact window aggregates for one (zone, sorted-bid) pair.
  struct BidCounters {
    std::int64_t up = 0;           ///< samples with S <= B
    std::int64_t paid_micros = 0;  ///< sum of S over up samples, micro-$
    std::int64_t starts = 0;       ///< interior down->up pairs
    std::int64_t interrupts = 0;   ///< interior up->down pairs
  };
  /// One zone's ZoneBidStats, one row per field, [original bid].
  struct ZoneRows {
    std::vector<double> availability;
    std::vector<double> mean_paid_price;
    std::vector<double> interruptions_per_hour;
    std::vector<double> mean_up_spell;
  };
  /// Memoized statistics of one multi-zone subset.
  struct CombinedEntry {
    std::uint64_t mask = 0;
    std::vector<std::size_t> zones;     ///< the mask's zones, ascending
    std::vector<std::int64_t> up;       ///< [sorted bid] any-zone-up samples
    std::vector<std::int64_t> outages;  ///< [sorted bid] interior any-up ->
                                        ///< none-up pairs
    std::vector<double> availability;   ///< [original bid], from the counts
    std::vector<double> outage_rate;    ///< [original bid], per hour
  };

  void rebuild(const ZoneTraceSet& traces, SimTime from, SimTime to);
  bool try_advance(const ZoneTraceSet& traces, SimTime from, SimTime to);
  void refresh_stats();
  /// First sorted-bid position whose threshold admits `s` (S <= B).
  std::size_t cut_of(double s) const;
  double sample_dollars(std::size_t zone, std::size_t abs_i) const {
    return base_[zone][abs_i].to_double();
  }
  /// Cut of sample `abs_i` for the subset: the cheapest zone's cut.
  std::size_t subset_cut(const std::vector<std::size_t>& zones,
                         std::size_t abs_i) const;
  /// Counts `e`'s subset over the current window from scratch.
  void fill_combined(CombinedEntry& e) const;
  /// Adjusts `e`'s counts from the current window to [lo, hi).
  void slide_combined(CombinedEntry& e, std::size_t lo, std::size_t hi) const;
  /// Re-derives `e`'s doubles from its counts.
  void refresh_combined(CombinedEntry& e) const;
  /// The memo entry of a multi-zone mask, filled on first use.
  const CombinedEntry& combined_entry(std::uint64_t mask) const;
  double hours() const;

  std::vector<Money> bid_grid_;
  std::vector<double> sorted_thr_;   ///< bid + 1e-9, ascending
  std::vector<std::size_t> order_;   ///< sorted position -> original index
  Duration step_ = kPriceStep;
  Duration window_length_ = 0;

  // Identity of the borrowed window: per-zone storage base plus the
  // absolute sample range [abs_lo_, abs_lo_ + n_).
  std::vector<const Money*> base_;
  SimTime series_start_ = 0;
  std::size_t series_size_ = 0;
  std::size_t abs_lo_ = 0;
  std::size_t n_ = 0;

  std::vector<std::vector<BidCounters>> counters_;  ///< [zone][sorted bid]
  std::vector<std::size_t> first_cut_;              ///< per zone
  std::vector<ZoneRows> zone_rows_;                 ///< per zone

  /// Lazily filled per multi-zone mask, slid by advance(), cleared only by
  /// rebuild(). Mutable: HistoryStats is a per-strategy, single-threaded
  /// object.
  mutable std::vector<CombinedEntry> combined_memo_;

  std::uint64_t full_rebuilds_ = 0;
  std::uint64_t incremental_advances_ = 0;
  mutable std::uint64_t subset_fills_ = 0;
};

}  // namespace redspot
