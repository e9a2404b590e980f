// Strategy consults and configuration changes — the paper's three
// reconfiguration rules (Section 7.1) and the zone-set handover.
#include <algorithm>
#include <span>

#include "core/engine.hpp"

namespace redspot {

namespace {

bool contains(std::span<const std::size_t> xs, std::size_t v) {
  return std::find(xs.begin(), xs.end(), v) != xs.end();
}

}  // namespace

void Engine::consult_strategy(DecisionPoint point) {
  auto next = strategy_->reconsider(*this, point);
  if (!next) return;
  if (next->same_as(config_)) {
    pending_config_.reset();
    return;
  }
  REDSPOT_CHECK(!next->zones.empty() && next->policy != nullptr &&
                next->bid > Money());
  if (config_is_non_disruptive(*next)) {
    // Rule 3: a change that keeps the bid and every active zone may be
    // adopted within the billing hour.
    apply_config(*next, /*at_boundary_of=*/false, 0);
    return;
  }
  if (point == DecisionPoint::kZoneTerminated) {
    // Rule 1: a termination is a natural reconfiguration point.
    apply_config(*next, /*at_boundary_of=*/false, 0);
    return;
  }
  // Rule 2: wait for the billing hour to end.
  pending_config_ = *next;
}

bool Engine::config_is_non_disruptive(const EngineConfig& next) const {
  if (next.bid != config_.bid) return false;
  for (std::size_t z : config_.zones) {
    if (zone_at(z).active() && !contains(next.zones, z)) return false;
  }
  return true;
}

void Engine::apply_config(const EngineConfig& next, bool at_boundary_of,
                          std::size_t boundary_zone) {
  const bool bid_changed = next.bid != config_.bid;
  const bool had_active = any_zone_active();
  for (std::size_t z : config_.zones) {
    ZoneMachine& zone = zone_at(z);
    const bool kept = contains(next.zones, z) && !bid_changed;
    if (zone.active() && !kept) {
      // A bid change requires cancelling the spot request (fixed-bid rule),
      // so even zones staying in the set must cycle through termination.
      user_terminate(z, at_boundary_of && z == boundary_zone);
    }
    if (!zone.active()) {
      // Non-active states re-derive from the price at the next tick; a
      // stale kWaiting under a changed bid must not be restarted blindly.
      if (zone.state() == ZoneState::kWaiting && bid_changed)
        zone.force_down();
      if (!contains(next.zones, z)) zone.force_down();
    }
  }
  for (std::size_t z : next.zones) {
    if (!contains(config_.zones, z)) zone_at(z).force_down();
  }
  config_ = next;
  pending_config_.reset();
  ++result_.config_changes;
  for (EngineObserver* o : observers_) o->on_config_change(now(), config_);
  if (had_active && !any_zone_active()) ++result_.full_outages;

  // Newly eligible zones become waiting immediately (their prices are
  // known); reconcile may then start them.
  for (std::size_t z : config_.zones) {
    ZoneMachine& zone = zone_at(z);
    if (zone.state() == ZoneState::kDown && price(z) <= config_.bid)
      zone.wake();
  }
  reschedule_policy_checkpoint();
  reconcile();
}

}  // namespace redspot
