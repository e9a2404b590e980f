#include "exp/sweep.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/batch/batched_engine.hpp"
#include "core/policies/large_bid.hpp"
#include "fault/audit_observer.hpp"
#include "fault/run_validator.hpp"
#include "journal/journal.hpp"
#include "journal/run_record.hpp"

namespace redspot {

namespace {

/// Lanes per lockstep group on the fixed-policy fast path. Wide enough to
/// amortize the shared models across a group, small enough that
/// groups still fill the thread pool on the paper's 80-experiment sweeps.
constexpr std::size_t kSweepBatchWidth = 16;

/// Batched execution of the non-replayed chunks of a fixed-policy sweep:
/// groups of kSweepBatchWidth lanes run in lockstep, each lane audited
/// and journaled exactly as on the scalar path. Bit-identical to the
/// scalar path by the BatchedSweepEngine contract.
void run_chunks_batched(const SpotMarket& market, const Scenario& scenario,
                        const EngineOptions& engine_options,
                        const PolicyRunSpec& spec, std::uint64_t key,
                        RunJournal* journal,
                        const std::vector<std::size_t>& chunks,
                        std::vector<RunResult>& results) {
  const batch::BatchedSweepEngine batcher(market, engine_options);
  const std::size_t groups =
      (chunks.size() + kSweepBatchWidth - 1) / kSweepBatchWidth;
  parallel_for(0, groups, [&](std::size_t g) {
    const std::size_t lo = g * kSweepBatchWidth;
    const std::size_t hi = std::min(lo + kSweepBatchWidth, chunks.size());
    std::vector<batch::BatchConfig> configs;
    std::vector<std::unique_ptr<AuditObserver>> audits;
    configs.reserve(hi - lo);
    audits.reserve(hi - lo);
    for (std::size_t k = lo; k < hi; ++k) {
      const Experiment experiment = scenario.experiment(chunks[k]);
      audits.push_back(std::make_unique<AuditObserver>(
          experiment, market.on_demand_rate(), AuditMode::kFull,
          engine_options.regime));
      configs.push_back(batch::BatchConfig{experiment, spec.policy, spec.bid,
                                           spec.zones, audits.back().get()});
    }
    const std::vector<RunResult> runs = batcher.run(configs);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t chunk = chunks[k];
      results[chunk] = runs[k - lo];
      if (journal != nullptr)
        journal->append(encode_sweep_chunk(key, chunk, results[chunk]));
    }
  });
}

/// Runs one simulation per chunk in parallel via `make_strategy`, which is
/// invoked once per run (strategies are stateful and not shareable). Every
/// result is audited against the run invariants before it is returned, so
/// a broken guarantee surfaces at the sweep instead of skewing a figure.
///
/// With a durability journal attached, the sweep's journal key is
/// sweep_base_key mixed with `mix_config` (the kind and configuration of
/// this sweep): chunks found under the key (checksum-intact, passing the
/// kReplay audit) are taken from the journal, and computed chunks are
/// appended under it once they pass the full audit. Without a journal the
/// key, which hashes every price sample, is never computed.
///
/// `batch_spec` non-null marks a fixed-policy sweep: its chunk groups
/// dispatch to the batched lockstep engine under any engine options,
/// faulted ones included; adaptive and large-bid strategies keep the
/// scalar per-chunk path.
template <typename MixConfig, typename MakeStrategy>
std::vector<RunResult> run_sweep(const SpotMarket& market,
                                 const Scenario& scenario,
                                 const EngineOptions& engine_options,
                                 MixConfig mix_config,
                                 SweepDurability* durability,
                                 const PolicyRunSpec* batch_spec,
                                 MakeStrategy make_strategy) {
  const std::size_t n = scenario.num_experiments;
  std::vector<RunResult> results(n);
  std::vector<char> replayed(n, 0);
  RunJournal* journal =
      durability != nullptr ? durability->journal : nullptr;
  std::uint64_t key = 0;
  if (journal != nullptr) {
    HashStream h;
    h.u64(sweep_base_key(market, scenario, engine_options));
    mix_config(h);
    key = h.digest();
    for (const std::string& payload : journal->records()) {
      if (record_type(payload) != RecordType::kSweepChunk) continue;
      std::optional<SweepChunkRecord> rec = decode_sweep_chunk(payload);
      if (!rec || rec->sweep_key != key || rec->chunk >= n) continue;
      const std::size_t chunk = static_cast<std::size_t>(rec->chunk);
      const Experiment experiment = scenario.experiment(chunk);
      if (!RunValidator(experiment, market.on_demand_rate(),
                        engine_options.regime)
               .audit(rec->run, AuditMode::kReplay)
               .empty()) {
        LOG_WARN << "journal: sweep chunk " << chunk
                 << " record failed the replay audit; recomputing";
        continue;
      }
      results[chunk] = std::move(rec->run);
      replayed[chunk] = 1;
    }
  }
  std::vector<std::size_t> pending;
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (replayed[i] == 0) pending.push_back(i);
  if (batch_spec != nullptr && pending.size() > 1) {
    run_chunks_batched(market, scenario, engine_options, *batch_spec, key,
                       journal, pending, results);
  } else {
    parallel_for(0, pending.size(), [&](std::size_t p) {
      const std::size_t i = pending[p];
      const Experiment experiment = scenario.experiment(i);
      auto strategy = make_strategy(i);
      Engine engine(market, experiment, *strategy, engine_options);
      AuditObserver audit(experiment, market.on_demand_rate(),
                          AuditMode::kFull, engine_options.regime);
      engine.add_observer(&audit);
      results[i] = engine.run();
      if (journal != nullptr)
        journal->append(encode_sweep_chunk(key, i, results[i]));
    });
  }
  if (durability != nullptr) {
    const std::size_t hits = static_cast<std::size_t>(
        std::count(replayed.begin(), replayed.end(), char{1}));
    durability->chunks_replayed = hits;
    durability->chunks_recomputed = n - hits;
  }
  return results;
}

void hash_market(HashStream& h, const SpotMarket& market) {
  const InstanceType& instance = market.instance_type();
  h.str(instance.api_name);
  h.i64(instance.on_demand_rate.micros());
  const QueueDelayParams& delay = market.delay_model().params();
  h.f64(delay.shift_seconds);
  h.f64(delay.mu);
  h.f64(delay.sigma);
  h.i64(static_cast<std::int64_t>(delay.min_delay));
  h.i64(static_cast<std::int64_t>(delay.max_delay));
  const ZoneTraceSet& traces = market.traces();
  h.u64(traces.num_zones());
  for (std::size_t z = 0; z < traces.num_zones(); ++z) {
    h.str(traces.zone_name(z));
    const PriceSeries& series = traces.zone(z);
    h.i64(static_cast<std::int64_t>(series.start()));
    h.i64(static_cast<std::int64_t>(series.step()));
    h.u64(series.size());
    for (const Money price : series.samples()) h.i64(price.micros());
  }
}

}  // namespace

std::uint64_t sweep_base_key(const SpotMarket& market,
                             const Scenario& scenario,
                             const EngineOptions& engine_options) {
  HashStream h;
  hash_market(h, market);
  h.u64(static_cast<std::uint64_t>(scenario.window));
  h.f64(scenario.slack_fraction);
  h.i64(static_cast<std::int64_t>(scenario.checkpoint_cost));
  h.u64(scenario.num_experiments);
  hash_engine_options(h, engine_options);
  return h.digest();
}

std::vector<RunResult> run_fixed_sweep(const SpotMarket& market,
                                       const Scenario& scenario,
                                       const PolicyRunSpec& spec,
                                       const EngineOptions& engine_options,
                                       SweepDurability* durability) {
  REDSPOT_CHECK(!spec.zones.empty());
  const auto mix_config = [&spec](HashStream& h) {
    h.u64(1);  // sweep kind: fixed policy
    h.u64(static_cast<std::uint64_t>(spec.policy));
    h.i64(spec.bid.micros());
    h.u64(spec.zones.size());
    for (const std::size_t z : spec.zones) h.u64(z);
  };
  return run_sweep(market, scenario, engine_options, mix_config, durability,
                   &spec, [&spec](std::size_t) {
    return std::make_unique<FixedStrategy>(spec.bid, spec.zones,
                                           make_policy(spec.policy));
  });
}

std::vector<RunResult> run_adaptive_sweep(
    const SpotMarket& market, const Scenario& scenario,
    const EngineOptions& engine_options,
    SweepDurability* durability) {
  const auto mix_config = [](HashStream& h) {
    h.u64(2);  // sweep kind: adaptive
  };
  return run_sweep(market, scenario, engine_options, mix_config, durability,
                   nullptr, [](std::size_t) {
    return std::make_unique<AdaptiveStrategy>();
  });
}

std::vector<RunResult> run_large_bid_sweep(const SpotMarket& market,
                                           const Scenario& scenario,
                                           Money threshold,
                                           std::size_t zone,
                                           const EngineOptions& engine_options,
                                           SweepDurability* durability) {
  const auto mix_config = [threshold, zone](HashStream& h) {
    h.u64(3);  // sweep kind: large-bid
    h.i64(threshold.micros());
    h.u64(zone);
  };
  return run_sweep(market, scenario, engine_options, mix_config, durability,
                   nullptr, [threshold, zone](std::size_t) {
    return std::make_unique<FixedStrategy>(
        LargeBidPolicy::large_bid(), std::vector<std::size_t>{zone},
        std::make_unique<LargeBidPolicy>(threshold));
  });
}

std::vector<double> costs_of(std::span<const RunResult> results) {
  std::vector<double> costs;
  costs.reserve(results.size());
  for (const RunResult& r : results)
    costs.push_back(r.total_cost.to_double());
  return costs;
}

std::vector<double> checked_costs(std::span<const RunResult> results) {
  for (const RunResult& r : results) {
    REDSPOT_CHECK_MSG(r.completed, "run did not complete");
    REDSPOT_CHECK_MSG(r.met_deadline, "run missed its deadline");
  }
  return costs_of(results);
}

std::vector<double> merged_single_zone_costs(const SpotMarket& market,
                                             const Scenario& scenario,
                                             PolicyKind policy, Money bid) {
  std::vector<double> merged;
  for (std::size_t zone = 0; zone < market.num_zones(); ++zone) {
    const std::vector<RunResult> results = run_fixed_sweep(
        market, scenario, PolicyRunSpec{policy, bid, {zone}});
    const std::vector<double> costs = checked_costs(results);
    merged.insert(merged.end(), costs.begin(), costs.end());
  }
  return merged;
}

std::vector<double> best_case_redundancy_costs(
    const SpotMarket& market, const Scenario& scenario,
    std::span<const PolicyKind> policies, Money bid) {
  REDSPOT_CHECK(!policies.empty());
  std::vector<std::size_t> all_zones(market.num_zones());
  for (std::size_t z = 0; z < all_zones.size(); ++z) all_zones[z] = z;

  std::vector<double> best;
  for (PolicyKind policy : policies) {
    const std::vector<RunResult> results = run_fixed_sweep(
        market, scenario, PolicyRunSpec{policy, bid, all_zones});
    const std::vector<double> costs = checked_costs(results);
    if (best.empty()) {
      best = costs;
    } else {
      REDSPOT_CHECK(best.size() == costs.size());
      for (std::size_t i = 0; i < costs.size(); ++i)
        best[i] = std::min(best[i], costs[i]);
    }
  }
  return best;
}

}  // namespace redspot
