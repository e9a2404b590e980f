#include "core/adaptive/estimator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <utility>

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

/// What a permutation's prediction needs from one (zone subset, bid) cell:
/// everything but the policy's checkpoint interval.
struct CellTerms {
  double availability = 0.0;     ///< combined availability
  double outage_rate = 0.0;      ///< full outages per hour
  double cost_rate = 0.0;        ///< sum of availability x paid price, $/h
  double first_hour_rate = 0.0;  ///< $/h the first hour locks in
  double up_spell_sum = 0.0;     ///< sum of mean up-spells, seconds
};

/// The cell terms of `zones` (the subset whose rows are `rows`) at bid
/// `bid_idx`. The zone sums run in the order of `zones`.
CellTerms cell_terms(const HistoryStats& hist,
                     const HistoryStats::SubsetRows& rows,
                     const std::vector<std::size_t>& zones,
                     std::size_t bid_idx, const EstimatorInputs& in) {
  CellTerms c;
  c.availability = rows.availability[bid_idx];
  c.outage_rate = rows.outage_rate[bid_idx];
  // Long-run dollars per wall hour, and the rate the first hour would lock
  // in given current prices (zones currently out-of-bid cost nothing until
  // they come back).
  const double bid_dollars = hist.bid_grid()[bid_idx].to_double() + 1e-9;
  for (std::size_t z : zones) {
    const ZoneBidStats st = hist.stats(z, bid_idx);
    c.cost_rate += st.availability * st.mean_paid_price;
    if (in.current_prices.empty()) {
      c.first_hour_rate += st.availability * st.mean_paid_price;
    } else if (in.current_prices[z] <= bid_dollars) {
      c.first_hour_rate += in.current_prices[z];
    }
    c.up_spell_sum += st.mean_up_spell;
  }
  return c;
}

/// A checkpoint interval and what it implies for the progress rate.
struct IntervalTerms {
  double efficiency = 0.0;       ///< interval / (interval + t_c)
  double loss_per_outage = 0.0;  ///< seconds of progress lost per outage
};

IntervalTerms interval_terms(Duration interval, const EstimatorInputs& in) {
  // Expected loss per full outage: half a checkpoint interval of rolled-
  // back work plus the restart and re-acquisition latency.
  return {static_cast<double>(interval) /
              static_cast<double>(interval + in.checkpoint_cost),
          static_cast<double>(interval) / 2.0 +
              static_cast<double>(in.restart_cost + in.mean_queue_delay)};
}

/// The interval every policy but Markov-Daly is predicted with: hourly
/// checkpoints. Reactive policies (Rising-Edge, Threshold, Randomized-bid,
/// Index-track) checkpoint roughly once per price movement; approximate
/// that with the hourly interval too.
IntervalTerms hourly_terms(const EstimatorInputs& in) {
  return interval_terms(kHour - in.checkpoint_cost, in);
}

/// Markov-Daly's interval for a cell: the combined expected up-time ~ the
/// sum of empirical mean up-spells (Section 4.2's independence argument),
/// fed to Daly's equation.
IntervalTerms daly_terms(const CellTerms& c, const EstimatorInputs& in) {
  if (c.up_spell_sum < 1.0) return hourly_terms(in);
  return interval_terms(
      daly_interval(in.checkpoint_cost,
                    static_cast<Duration>(c.up_spell_sum)),
      in);
}

/// One cell priced at one checkpoint interval. The times stay unrounded:
/// only the winner's are rounded to whole seconds (make_estimate).
struct Prediction {
  double progress_rate = 0.0;
  double spot_s = 0.0;  ///< seconds on spot
  double od_s = 0.0;    ///< seconds on-demand
  Money cost;
};

Prediction price(const CellTerms& c, const IntervalTerms& iv,
                 const EstimatorInputs& in) {
  Prediction p;
  const double raw_rate =
      c.availability * iv.efficiency -
      c.outage_rate * iv.loss_per_outage / static_cast<double>(kHour);
  p.progress_rate = std::clamp(raw_rate, 0.0, 1.0);

  // Inequality (1): can the spot market alone deliver C_r within T_r?
  const double cr = static_cast<double>(in.remaining_compute);
  const Duration reserve = in.checkpoint_cost + in.restart_cost;
  const double tr_avail =
      static_cast<double>(std::max<Duration>(0, in.remaining_time - reserve));
  const double r = p.progress_rate;

  double& spot_s = p.spot_s;
  double& od_s = p.od_s;
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
  const double first_hour_s =
      std::min(spot_s, static_cast<double>(kHour));
  const double later_s = spot_s - first_hour_s;
  p.cost = Money::dollars(
      (c.first_hour_rate * first_hour_s + c.cost_rate * later_s) /
      static_cast<double>(kHour));
  if (od_s > 0.0) {
    p.cost += in.on_demand_rate *
              started_hours(static_cast<Duration>(std::llround(od_s)));
  }
  return p;
}

/// The estimate of a priced cell, without its zone list.
PermutationEstimate make_estimate(Money bid, PolicyKind policy,
                                  const CellTerms& c, const Prediction& p) {
  PermutationEstimate e;
  e.bid = bid;
  e.policy = policy;
  e.progress_rate = p.progress_rate;
  e.cost_rate = c.cost_rate;
  e.spot_seconds = static_cast<Duration>(std::llround(p.spot_s));
  e.on_demand_seconds = static_cast<Duration>(std::llround(p.od_s));
  e.predicted_cost = p.cost;
  return e;
}

void check_inputs(const HistoryStats& hist, const EstimatorInputs& in) {
  REDSPOT_CHECK(in.remaining_time >= 0);
  REDSPOT_CHECK_MSG(in.current_prices.empty() ||
                        in.current_prices.size() >= hist.num_zones(),
                    "current_prices must price every zone ("
                        << in.current_prices.size() << " for "
                        << hist.num_zones() << ")");
}

/// A scanned candidate's place in the order documented on
/// best_permutation().
struct RankKey {
  Money cost;
  std::uint64_t mask = 0;  ///< the zone set
  Money bid;
  PolicyKind policy = PolicyKind::kPeriodic;
};

bool ranks_before(const RankKey& a, const RankKey& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (std::popcount(a.mask) != std::popcount(b.mask))
    return std::popcount(a.mask) < std::popcount(b.mask);
  if (a.bid != b.bid) return a.bid < b.bid;
  if (a.mask != b.mask) {
    // Equal-size ascending zone lists share the zones below the lowest
    // differing one; the list holding that zone is lexicographically
    // smaller.
    const std::uint64_t diff = a.mask ^ b.mask;
    return (a.mask & diff & (~diff + 1)) != 0;
  }
  return a.policy < b.policy;
}

}  // namespace

PermutationEstimate estimate_permutation(
    const HistoryStats& hist, std::size_t bid_idx,
    std::vector<std::size_t> zones, PolicyKind policy,
    const EstimatorInputs& in) {
  REDSPOT_CHECK(!zones.empty());
  REDSPOT_CHECK(bid_idx < hist.bid_grid().size());
  check_inputs(hist, in);
  const CellTerms c =
      cell_terms(hist, hist.subset_rows(hist.zone_mask(zones)), zones,
                 bid_idx, in);
  const IntervalTerms iv = policy == PolicyKind::kMarkovDaly
                               ? daly_terms(c, in)
                               : hourly_terms(in);
  PermutationEstimate e =
      make_estimate(hist.bid_grid()[bid_idx], policy, c, price(c, iv, in));
  e.zones = std::move(zones);
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
  check_inputs(hist, in);

  // One reused list holds the current subset; at the end it becomes the
  // winner's zone list, the scan's only allocation.
  std::vector<std::size_t> zones;
  zones.reserve(z_total);
  const auto fill_zones = [&](std::uint64_t mask) {
    zones.clear();
    for (std::size_t z = 0; z < z_total; ++z)
      if (mask & (std::uint64_t{1} << z)) zones.push_back(z);
  };

  const std::vector<Money>& grid = hist.bid_grid();
  const IntervalTerms hourly = hourly_terms(in);
  const bool any_daly =
      std::find(policies.begin(), policies.end(), PolicyKind::kMarkovDaly) !=
      policies.end();

  RankKey best;
  CellTerms best_cell;
  Prediction best_prediction;
  const std::uint64_t limit = std::uint64_t{1} << z_total;
  for (std::uint64_t mask = 1; mask < limit; ++mask) {
    fill_zones(mask);
    const HistoryStats::SubsetRows rows = hist.subset_rows(mask);
    for (std::size_t b = 0; b < grid.size(); ++b) {
      // Each cell is built once and priced under every policy.
      const CellTerms c = cell_terms(hist, rows, zones, b, in);
      const IntervalTerms daly = any_daly ? daly_terms(c, in) : hourly;
      for (PolicyKind policy : policies) {
        const Prediction p =
            price(c, policy == PolicyKind::kMarkovDaly ? daly : hourly, in);
        const RankKey key{p.cost, mask, grid[b], policy};
        if (best.mask == 0 || ranks_before(key, best)) {
          best = key;
          best_cell = c;
          best_prediction = p;
        }
      }
    }
  }
  PermutationEstimate e =
      make_estimate(best.bid, best.policy, best_cell, best_prediction);
  fill_zones(best.mask);
  e.zones = std::move(zones);
  return e;
}

}  // namespace redspot
