// The EngineView read surface: what policies and strategies may observe.
#include <algorithm>

#include "core/engine.hpp"

namespace redspot {

Money Engine::previous_price(std::size_t zone) const {
  const SimTime prev = now() - market_->traces().step();
  if (prev < market_->trace_start()) return price(zone);
  return market_->spot_price(zone, prev);
}

PriceView Engine::history(std::size_t zone) const {
  const SimTime from =
      std::max(market_->trace_start(), now() - experiment_.history_span);
  // At the very start of the trace there is no history yet; expose the
  // current sample so Markov-based policies still get a (degenerate) model.
  const SimTime to = std::max(now(), from + 1);
  return market_->traces().zone(zone).view(from, to);
}

Money Engine::min_observed_price(std::size_t zone) const {
  // One scan of the view, scalar or batched — no window materialization.
  return history(zone).min_price();
}

Duration Engine::zone_progress(std::size_t zone) const {
  return zone_at(zone).progress(now());
}

Duration Engine::leading_progress() const {
  Duration best = store_.latest_progress();
  for (std::size_t z : config_.zones) {
    if (zone_running(z)) best = std::max(best, zone_progress(z));
  }
  return best;
}

SimTime Engine::leading_compute_since() const {
  Duration best = -1;
  SimTime since = kNever;
  for (std::size_t z : config_.zones) {
    if (!zone_at(z).computing()) continue;
    const Duration p = zone_progress(z);
    if (p > best) {
      best = p;
      since = zone_at(z).computing_since();
    }
  }
  return since;
}

std::optional<std::size_t> Engine::leading_zone() const {
  Duration best = -1;
  std::optional<std::size_t> leader;
  for (std::size_t z : config_.zones) {
    if (!zone_at(z).computing()) continue;
    const Duration p = zone_progress(z);
    if (p > best) {
      best = p;
      leader = z;
    }
  }
  return leader;
}

}  // namespace redspot
