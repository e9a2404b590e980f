#include "core/batch/model_pool.hpp"

#include <algorithm>

#include "core/batch/batch_state.hpp"

namespace redspot::batch {

void ZoneModelPool::set_bid_grid(std::span<const Money> bids) {
  bid_grid_.assign(bids.begin(), bids.end());
  std::sort(bid_grid_.begin(), bid_grid_.end());
  bid_grid_.erase(std::unique(bid_grid_.begin(), bid_grid_.end()),
                  bid_grid_.end());
  grid_alive_.resize(bid_grid_.size());
}

ZoneModelPool::ZoneSlot& ZoneModelPool::slot(std::size_t zone) {
  if (zones_.size() <= zone) zones_.resize(zone + 1);
  if (zones_[zone] == nullptr)
    zones_[zone] = std::make_unique<ZoneSlot>();
  return *zones_[zone];
}

void ZoneModelPool::prewarm(ZoneSlot& z, Money price) {
  const MarkovModel& model = z.model.model();
  grid_prices_.assign(model.state_prices.begin(), model.state_prices.end());
  map_alive_states(grid_prices_, bid_grid_, grid_alive_);
  // One memoized solve per DISTINCT (state, alive) key: the grid is
  // ascending so alive states are non-decreasing, and once the price is
  // within the bid, uptime is a pure function of (current state, alive
  // state), so bids sharing an alive state share the answer. Bids below
  // the price are out of bid (uptime 0) whatever their alive state: the
  // raw price may sit between two bids of one alive state. Every grid
  // bid's uptime lands in warmed_uptime so lane queries are one array read.
  z.warmed_uptime.resize(bid_grid_.size());
  std::int32_t last_alive = INT32_MIN;
  Duration last_uptime = 0;
  for (std::size_t j = 0; j < bid_grid_.size(); ++j) {
    if (price > bid_grid_[j]) {
      z.warmed_uptime[j] = 0;
      continue;
    }
    if (grid_alive_[j] != last_alive) {
      last_alive = grid_alive_[j];
      last_uptime = z.model.expected_uptime(price, bid_grid_[j]);
    }
    z.warmed_uptime[j] = last_uptime;
  }
}

Duration ZoneModelPool::expected_uptime(std::size_t zone,
                                        const PriceView& history, Money price,
                                        Money bid) {
  ZoneSlot& z = slot(zone);
  z.model.observe(history);
  if (!bid_grid_.empty()) {
    const std::uint64_t refreshes = z.model.model_refreshes();
    if (z.warmed_refreshes != refreshes ||
        z.warmed_price_micros != price.micros()) {
      prewarm(z, price);
      z.warmed_refreshes = refreshes;
      z.warmed_price_micros = price.micros();
    }
    const auto it =
        std::lower_bound(bid_grid_.begin(), bid_grid_.end(), bid);
    if (it != bid_grid_.end() && *it == bid) {
      return z.warmed_uptime[static_cast<std::size_t>(
          it - bid_grid_.begin())];
    }
  }
  return z.model.expected_uptime(price, bid);
}

}  // namespace redspot::batch
