// Shared cache-resident trace view for batched sweeps (DESIGN.md §14).
//
// Every engine in a lockstep batch group walks the SAME market traces, and
// the Threshold policy's S_min query — min price over the trailing 2-day
// window — re-scans those shared samples once per engine per tick. A
// SharedTraceIndex precomputes a blocked range-minimum over each zone's
// samples once per market, turning every S_min query from an O(window)
// scan into a few loads.
//
// Bit-identity: prices are integer micro-dollars, and min over integers is
// associative with a unique value, so the index's answer equals
// *std::min_element over the same span bit-for-bit. The index is immutable
// after construction and safe to share across threads and engines.
//
// Lifetime: in-block queries scan the indexed samples in place, so the
// span given to RangeMinIndex::build (for a SharedTraceIndex: the traces
// it was built over) must outlive the index.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/money.hpp"
#include "trace/price_view.hpp"
#include "trace/zone_traces.hpp"

namespace redspot::batch {

/// Blocked range minimum over one sample array: fixed kBlock-sample
/// blocks, each with per-sample prefix and suffix minima, plus a sparse
/// table over the block minima. O(n) build, about 2n words of storage,
/// O(1) query across blocks; a query inside one block scans it.
class RangeMinIndex {
 public:
  static constexpr std::size_t kBlock = 64;

  /// Indexes `samples`, which must outlive this index.
  void build(std::span<const Money> samples);

  /// Exact minimum over sample indices [lo, hi); requires lo < hi <= size.
  Money min_in(std::size_t lo, std::size_t hi) const;

  std::size_t size() const { return samples_.size(); }
  std::span<const Money> samples() const { return samples_; }

  /// Heap bytes the index owns (the samples themselves are not counted).
  std::size_t memory_bytes() const;

 private:
  std::span<const Money> samples_;
  /// prefix_[i] = min over [block start of i, i]; suffix_[i] = min over
  /// [i, block end of i), the block end clipped to size().
  std::vector<std::int64_t> prefix_, suffix_;
  std::size_t blocks_ = 0;
  /// table_[k * blocks_ + b] = min over blocks [b, b + 2^k), level-major
  /// so each query's two loads share a level row.
  std::vector<std::int64_t> table_;
};

/// One RangeMinIndex per market zone, addressed by the PriceViews the
/// engine hands out (views alias the zone trace, so the view's data
/// pointer locates its sample range in O(1)).
class SharedTraceIndex {
 public:
  /// Indexes every zone of `traces`, which must outlive this index.
  explicit SharedTraceIndex(const ZoneTraceSet& traces);

  /// Minimum over the samples `view` covers; `view` must alias the trace
  /// of `zone` this index was built over.
  Money min_over(std::size_t zone, const PriceView& view) const;

  std::size_t num_zones() const { return zones_.size(); }

  /// Heap bytes owned by all zone indexes.
  std::size_t memory_bytes() const;

 private:
  std::vector<RangeMinIndex> zones_;
};

}  // namespace redspot::batch
