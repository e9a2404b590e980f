#include "trace/price_view.hpp"

#include <algorithm>
#include <cstdint>

#include "trace/price_series.hpp"

namespace redspot {

SimTime PriceView::next_change(SimTime t) const {
  const Money current = at(t);
  for (std::size_t i = index_of(t) + 1; i < samples_.size(); ++i) {
    if (samples_[i] != current) return time_of(i);
  }
  return kNever;
}

Money PriceView::min_price() const {
  REDSPOT_CHECK(!samples_.empty());
  // Four independent running minima break the loop-carried dependency of a
  // single accumulator, and the selects compile to conditional moves. The
  // minimum of integers is exact, so this equals *std::min_element.
  const std::size_t n = samples_.size();
  std::int64_t m0 = samples_[0].micros();
  std::int64_t m1 = m0;
  std::int64_t m2 = m0;
  std::int64_t m3 = m0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::min(m0, samples_[i].micros());
    m1 = std::min(m1, samples_[i + 1].micros());
    m2 = std::min(m2, samples_[i + 2].micros());
    m3 = std::min(m3, samples_[i + 3].micros());
  }
  for (; i < n; ++i) m0 = std::min(m0, samples_[i].micros());
  return Money::from_micros(std::min(std::min(m0, m1), std::min(m2, m3)));
}

Money PriceView::max_price() const {
  REDSPOT_CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

PriceView PriceView::window(SimTime from, SimTime to) const {
  from = std::max(from, start_);
  to = std::min(to, end());
  REDSPOT_CHECK_MSG(from < to, "empty window request");
  const std::size_t lo = index_of(from);
  // Round the right edge up to cover `to`.
  const std::size_t hi =
      static_cast<std::size_t>((to - start_ + step_ - 1) / step_);
  return PriceView(time_of(lo), step_, samples_.subspan(lo, hi - lo));
}

PriceSeries PriceView::materialize() const {
  return PriceSeries(start_, step_,
                     std::vector<Money>(samples_.begin(), samples_.end()));
}

std::vector<double> PriceView::to_doubles() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (Money m : samples_) out.push_back(m.to_double());
  return out;
}

}  // namespace redspot
