#include "core/batch/trace_index.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace redspot::batch {

void RangeMinIndex::build(std::span<const Money> samples) {
  samples_ = samples;
  const std::size_t n = samples.size();
  prefix_.resize(n);
  suffix_.resize(n);
  blocks_ = (n + kBlock - 1) / kBlock;
  const auto levels = static_cast<std::size_t>(std::bit_width(blocks_));
  table_.resize(levels * blocks_);
  for (std::size_t b = 0; b < blocks_; ++b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(lo + kBlock, n);
    std::int64_t m = samples[lo].micros();
    for (std::size_t i = lo; i < hi; ++i)
      prefix_[i] = m = std::min(m, samples[i].micros());
    table_[b] = m;
    m = samples[hi - 1].micros();
    for (std::size_t i = hi; i-- > lo;)
      suffix_[i] = m = std::min(m, samples[i].micros());
  }
  for (std::size_t k = 1; k < levels; ++k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::int64_t* prev = table_.data() + (k - 1) * blocks_;
    std::int64_t* cur = table_.data() + k * blocks_;
    for (std::size_t b = 0; b + 2 * half <= blocks_; ++b)
      cur[b] = std::min(prev[b], prev[b + half]);
  }
}

Money RangeMinIndex::min_in(std::size_t lo, std::size_t hi) const {
  REDSPOT_CHECK(lo < hi && hi <= samples_.size());
  const std::size_t last = hi - 1;
  const std::size_t first_block = lo / kBlock;
  const std::size_t last_block = last / kBlock;
  if (first_block == last_block)
    return std::ranges::min(samples_.subspan(lo, hi - lo));
  std::int64_t m = std::min(suffix_[lo], prefix_[last]);
  if (last_block - first_block > 1) {
    const std::size_t b = first_block + 1;
    const std::size_t k =
        static_cast<std::size_t>(std::bit_width(last_block - b)) - 1;
    const std::int64_t* row = table_.data() + k * blocks_;
    m = std::min({m, row[b], row[last_block - (std::size_t{1} << k)]});
  }
  return Money::from_micros(m);
}

std::size_t RangeMinIndex::memory_bytes() const {
  return (prefix_.size() + suffix_.size() + table_.size()) *
         sizeof(std::int64_t);
}

SharedTraceIndex::SharedTraceIndex(const ZoneTraceSet& traces) {
  zones_.resize(traces.num_zones());
  for (std::size_t z = 0; z < traces.num_zones(); ++z)
    zones_[z].build(traces.zone(z).samples());
}

Money SharedTraceIndex::min_over(std::size_t zone,
                                 const PriceView& view) const {
  REDSPOT_CHECK(zone < zones_.size());
  const RangeMinIndex& idx = zones_[zone];
  const Money* base = idx.samples().data();
  REDSPOT_CHECK_MSG(!view.empty(), "min over an empty window");
  REDSPOT_CHECK_MSG(view.data() >= base &&
                        view.data() + view.size() <= base + idx.size(),
                    "view does not alias the indexed trace");
  const std::size_t lo = static_cast<std::size_t>(view.data() - base);
  return idx.min_in(lo, lo + view.size());
}

std::size_t SharedTraceIndex::memory_bytes() const {
  std::size_t bytes = 0;
  for (const RangeMinIndex& idx : zones_) bytes += idx.memory_bytes();
  return bytes;
}

}  // namespace redspot::batch
