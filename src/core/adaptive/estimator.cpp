#include "core/adaptive/estimator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "ckpt/daly.hpp"
#include "common/check.hpp"

namespace redspot {

std::string PermutationEstimate::str() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "bid=%s N=%zu policy=%s r=%.3f c=%.3f/h cost=%s", bid
                    .str()
                    .c_str(),
                zones.size(), to_string(policy).c_str(), progress_rate,
                cost_rate, predicted_cost.str().c_str());
  return buf;
}

namespace {

/// Policy-dependent checkpoint interval for the prediction.
Duration predicted_interval(const HistoryStats& hist, std::size_t bid_idx,
                            const std::vector<std::size_t>& zones,
                            PolicyKind policy, Duration checkpoint_cost) {
  switch (policy) {
    case PolicyKind::kPeriodic:
      return kHour - checkpoint_cost;
    case PolicyKind::kMarkovDaly: {
      // Combined expected up-time ~ sum of empirical mean up-spells
      // (Section 4.2's independence argument), fed to Daly's equation.
      double combined = 0.0;
      for (std::size_t z : zones)
        combined += hist.stats(z, bid_idx).mean_up_spell;
      if (combined < 1.0) return kHour - checkpoint_cost;
      return daly_interval(checkpoint_cost,
                           static_cast<Duration>(combined));
    }
    case PolicyKind::kRisingEdge:
    case PolicyKind::kThreshold:
    case PolicyKind::kRandomizedBid:
    case PolicyKind::kIndexTrack:
      // Reactive policies checkpoint roughly once per price movement;
      // approximate with the per-zone interruption spacing.
      return kHour - checkpoint_cost;
  }
  return kHour - checkpoint_cost;
}

/// Everything estimate_permutation() predicts except the zone list, which
/// it leaves empty so a scan over candidates does not allocate.
PermutationEstimate estimate(const HistoryStats& hist, std::size_t bid_idx,
                             const std::vector<std::size_t>& zones,
                             PolicyKind policy, const EstimatorInputs& in) {
  REDSPOT_CHECK(!zones.empty());
  REDSPOT_CHECK(in.remaining_time >= 0);

  PermutationEstimate e;
  e.bid = hist.bid_grid()[bid_idx];
  e.policy = policy;

  const Duration interval =
      predicted_interval(hist, bid_idx, zones, policy, in.checkpoint_cost);
  const double efficiency =
      static_cast<double>(interval) /
      static_cast<double>(interval + in.checkpoint_cost);

  const double avail = hist.combined_availability(zones, bid_idx);
  const double outage_rate = hist.full_outage_rate(zones, bid_idx);
  // Expected loss per full outage: half a checkpoint interval of rolled-
  // back work plus the restart and re-acquisition latency.
  const double loss_per_outage =
      static_cast<double>(interval) / 2.0 +
      static_cast<double>(in.restart_cost + in.mean_queue_delay);
  const double raw_rate =
      avail * efficiency -
      outage_rate * loss_per_outage / static_cast<double>(kHour);
  e.progress_rate = std::clamp(raw_rate, 0.0, 1.0);

  // Long-run dollars per wall hour, and the rate the first hour would lock
  // in given current prices (zones currently out-of-bid cost nothing until
  // they come back).
  double cost_rate = 0.0;
  double first_hour_rate = 0.0;
  const double bid_dollars = e.bid.to_double() + 1e-9;
  for (std::size_t z : zones) {
    const ZoneBidStats& st = hist.stats(z, bid_idx);
    cost_rate += st.availability * st.mean_paid_price;
    if (z < in.current_prices.size() && in.current_prices[z] <= bid_dollars) {
      first_hour_rate += in.current_prices[z];
    } else if (in.current_prices.empty()) {
      first_hour_rate += st.availability * st.mean_paid_price;
    }
  }
  e.cost_rate = cost_rate;

  // Inequality (1): can the spot market alone deliver C_r within T_r?
  const double cr = static_cast<double>(in.remaining_compute);
  const Duration reserve = in.checkpoint_cost + in.restart_cost;
  const double tr_avail =
      static_cast<double>(std::max<Duration>(0, in.remaining_time - reserve));
  const double r = e.progress_rate;

  double spot_s = 0.0;
  double od_s = 0.0;
  if (r > 1e-6 && r * tr_avail >= cr) {
    spot_s = cr / r;
  } else {
    // Split: run on spot until the deadline forces the switch, then finish
    // on-demand: r*t_spot + (T_r - t_spot - reserve) = C_r.
    if (r < 1.0 - 1e-9) {
      spot_s = (tr_avail - cr) / (1.0 - r);
      spot_s = std::clamp(spot_s, 0.0, tr_avail);
    }
    const double od_compute = std::max(0.0, cr - r * spot_s);
    od_s = od_compute + static_cast<double>(in.restart_cost);
  }
  e.spot_seconds = static_cast<Duration>(std::llround(spot_s));
  e.on_demand_seconds = static_cast<Duration>(std::llround(od_s));

  const double first_hour_s =
      std::min(spot_s, static_cast<double>(kHour));
  const double later_s = spot_s - first_hour_s;
  Money cost = Money::dollars(
      (first_hour_rate * first_hour_s + cost_rate * later_s) /
      static_cast<double>(kHour));
  if (od_s > 0.0)
    cost += in.on_demand_rate * started_hours(e.on_demand_seconds);
  e.predicted_cost = cost;
  return e;
}

/// True when (a over zone mask ma) ranks before (b over mb) in the total
/// order documented on best_permutation().
bool ranks_before(const PermutationEstimate& a, std::uint64_t ma,
                  const PermutationEstimate& b, std::uint64_t mb) {
  if (a.predicted_cost != b.predicted_cost)
    return a.predicted_cost < b.predicted_cost;
  if (std::popcount(ma) != std::popcount(mb))
    return std::popcount(ma) < std::popcount(mb);
  if (a.bid != b.bid) return a.bid < b.bid;
  if (ma != mb) {
    // Equal-size ascending zone lists share the zones below the lowest
    // differing one; the list holding that zone is lexicographically
    // smaller.
    const std::uint64_t diff = ma ^ mb;
    return (ma & diff & (~diff + 1)) != 0;
  }
  return a.policy < b.policy;
}

}  // namespace

PermutationEstimate estimate_permutation(
    const HistoryStats& hist, std::size_t bid_idx,
    const std::vector<std::size_t>& zones, PolicyKind policy,
    const EstimatorInputs& in) {
  PermutationEstimate e = estimate(hist, bid_idx, zones, policy, in);
  e.zones = zones;
  return e;
}

PermutationEstimate best_permutation(const HistoryStats& hist,
                                     std::size_t max_zones,
                                     std::span<const PolicyKind> policies,
                                     const EstimatorInputs& in) {
  const std::size_t z_total = std::min(hist.num_zones(), max_zones);
  REDSPOT_CHECK(z_total > 0);
  REDSPOT_CHECK_MSG(z_total < 64, "zone subsets are enumerated as a mask");
  REDSPOT_CHECK(!policies.empty());

  // One reused list holds the current subset; at the end it becomes the
  // winner's zone list, the scan's only allocation.
  std::vector<std::size_t> zones;
  zones.reserve(z_total);
  const auto fill_zones = [&](std::uint64_t mask) {
    zones.clear();
    for (std::size_t z = 0; z < z_total; ++z)
      if (mask & (std::uint64_t{1} << z)) zones.push_back(z);
  };

  PermutationEstimate best;
  std::uint64_t best_mask = 0;
  const std::uint64_t limit = std::uint64_t{1} << z_total;
  for (std::uint64_t mask = 1; mask < limit; ++mask) {
    fill_zones(mask);
    for (std::size_t b = 0; b < hist.bid_grid().size(); ++b) {
      for (PolicyKind policy : policies) {
        PermutationEstimate e = estimate(hist, b, zones, policy, in);
        if (best_mask == 0 || ranks_before(e, mask, best, best_mask)) {
          best = e;
          best_mask = mask;
        }
      }
    }
  }
  fill_zones(best_mask);
  best.zones = std::move(zones);
  return best;
}

}  // namespace redspot
