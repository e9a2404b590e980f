#include "core/adaptive/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "ckpt/daly.hpp"
#include "common/check.hpp"

namespace redspot {

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

}  // namespace

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

PermutationEstimate estimate_permutation(
    const HistoryStats& hist, std::size_t bid_idx,
    const std::vector<std::size_t>& zones, PolicyKind policy,
    const EstimatorInputs& in) {
  REDSPOT_CHECK(!zones.empty());
  REDSPOT_CHECK(in.remaining_time >= 0);

  PermutationEstimate e;
  e.bid = hist.bid_grid()[bid_idx];
  e.zones = zones;
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

std::vector<PermutationEstimate> evaluate_permutations(
    const HistoryStats& hist, std::size_t max_zones,
    std::span<const PolicyKind> policies, const EstimatorInputs& in) {
  const std::size_t z_total = std::min(hist.num_zones(), max_zones);
  REDSPOT_CHECK(z_total > 0);
  // All non-empty subsets of the first z_total zones.
  std::vector<std::vector<std::size_t>> subsets;
  const std::size_t limit = std::size_t{1} << z_total;
  for (std::size_t mask = 1; mask < limit; ++mask) {
    std::vector<std::size_t> subset;
    for (std::size_t z = 0; z < z_total; ++z)
      if (mask & (std::size_t{1} << z)) subset.push_back(z);
    subsets.push_back(std::move(subset));
  }

  std::vector<PermutationEstimate> all;
  all.reserve(hist.bid_grid().size() * subsets.size() * policies.size());
  for (std::size_t b = 0; b < hist.bid_grid().size(); ++b) {
    for (const auto& subset : subsets) {
      for (PolicyKind policy : policies) {
        all.push_back(estimate_permutation(hist, b, subset, policy, in));
      }
    }
  }
  // A total order: the ranking (and Adaptive's pick) never depends on the
  // sort algorithm or the input order.
  std::sort(all.begin(), all.end(),
            [](const PermutationEstimate& a, const PermutationEstimate& b) {
              if (a.predicted_cost != b.predicted_cost)
                return a.predicted_cost < b.predicted_cost;
              if (a.zones.size() != b.zones.size())
                return a.zones.size() < b.zones.size();
              if (a.bid != b.bid) return a.bid < b.bid;
              if (a.zones != b.zones) return a.zones < b.zones;
              return a.policy < b.policy;
            });
  return all;
}

}  // namespace redspot
