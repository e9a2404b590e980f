#include "serve/advisor.hpp"

#include <utility>

#include "ckpt/daly.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "core/adaptive/estimator.hpp"

namespace redspot::serve {

std::uint64_t ModelSpec::spec_hash() const {
  HashStream h;
  h.str("serve-model-spec-v1");
  h.i64(history_span);
  h.u64(bid_grid.size());
  for (Money b : bid_grid) h.i64(b.micros());
  h.u64(max_states);
  h.u64(max_zones);
  h.u64(policies.size());
  for (PolicyKind p : policies) h.u64(static_cast<std::uint64_t>(p));
  h.u64(regime_fingerprint);
  return h.digest();
}

std::size_t ModelSpec::approx_bytes(std::size_t num_zones) const {
  // Steady-state footprint, dominated by the per-zone Markov state (n x n
  // transition counts + memo slots) and HistoryStats' per-(zone,
  // bid) counters; the window-sized fit buffers only materialize in
  // quantile-binned mode but are charged anyway (capacity planning wants
  // the ceiling, not the floor).
  const std::size_t window_samples = static_cast<std::size_t>(
      history_span / kPriceStep);
  const std::size_t per_zone_markov =
      max_states * max_states * (8 + 8 + 4) + window_samples * 2 * 8;
  const std::size_t per_zone_hist = bid_grid.size() * 96;
  return sizeof(ModelEntry) +
         num_zones * (per_zone_markov + per_zone_hist + 512);
}

namespace {

EstimatorInputs make_inputs(const ZoneTraceSet& traces, SimTime now,
                            const JobParams& job) {
  EstimatorInputs in;
  in.remaining_compute = job.remaining_compute;
  in.remaining_time = job.remaining_time;
  in.checkpoint_cost = job.checkpoint_cost;
  in.restart_cost = job.restart_cost;
  in.mean_queue_delay = job.mean_queue_delay;
  in.on_demand_rate = job.on_demand_rate;
  in.current_prices.reserve(traces.num_zones());
  for (std::size_t z = 0; z < traces.num_zones(); ++z)
    in.current_prices.push_back(traces.zone(z).at(now).to_double());
  return in;
}

}  // namespace

SlideWindow slide_history(ModelEntry& entry, const ZoneTraceSet& traces) {
  REDSPOT_CHECK(!traces.zone(0).empty());
  const SimTime now = traces.end() - traces.step();
  const SimTime from = now - entry.spec.history_span;
  if (!entry.hist) {
    entry.hist.emplace(traces, from, now, entry.spec.bid_grid);
  } else {
    entry.hist->advance(traces, from, now);
  }
  while (entry.zone_models.size() < traces.num_zones())
    entry.zone_models.emplace_back(entry.spec.max_states);
  return {from, now};
}

Advice compute_advice(ModelEntry& entry, const ZoneTraceSet& traces,
                      const JobParams& job) {
  const auto [from, now] = slide_history(entry, traces);
  PermutationEstimate best =
      best_permutation(*entry.hist, entry.spec.max_zones,
                       entry.spec.policies, make_inputs(traces, now, job));

  Advice adv;
  adv.as_of = now;
  adv.bid = best.bid;
  adv.zones = std::move(best.zones);
  adv.policy = best.policy;
  adv.predicted_cost = best.predicted_cost;

  // Markov-Daly execution knobs for the chosen permutation, computed the
  // way MarkovDalyPolicy::schedule_next_checkpoint computes them: per-zone
  // expected up-time at the current price under the adopted bid, summed
  // over the zones that would run.
  Duration uptime = 0;
  for (std::size_t zone : adv.zones) {
    IncrementalMarkovModel& model = entry.zone_models[zone];
    model.observe(traces.zone(zone).view(from, now));
    uptime += model.expected_uptime(traces.zone(zone).at(now), adv.bid);
  }
  adv.expected_uptime = uptime;
  if (adv.policy == PolicyKind::kMarkovDaly && uptime > 0)
    adv.checkpoint_interval = daly_interval(job.checkpoint_cost, uptime);

  ++entry.advises;
  return adv;
}

Advice advise_offline(const ModelSpec& spec, const ZoneTraceSet& traces,
                      const JobParams& job) {
  ModelEntry fresh(spec);
  return compute_advice(fresh, traces, job);
}

}  // namespace redspot::serve
