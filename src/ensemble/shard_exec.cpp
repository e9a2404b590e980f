#include "ensemble/shard_exec.hpp"

#include <exception>
#include <mutex>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/batch/batched_engine.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "exp/scenario.hpp"
#include "fault/audit_observer.hpp"
#include "fault/run_validator.hpp"
#include "market/spot_market.hpp"

namespace redspot {

ZoneTraceSet experiment_traces(const SyntheticTraceSpec& spec,
                               const Experiment& experiment) {
  const SimTime from = experiment.start - experiment.history_span;
  ZoneTraceSet traces =
      generate_traces(spec, from, experiment.deadline_time() + spec.step);
  // Engine::history clamps at the trace start without a word, so a span
  // cut short would shorten the history instead of failing.
  REDSPOT_CHECK_MSG(traces.start() <= from,
                    "the trace starts at " << traces.start()
                                           << ", after the history start "
                                           << from);
  return traces;
}

ShardExecutor::ShardExecutor(const EnsembleSpec& spec)
    : spec_(spec),
      spec_hash_(spec.spec_hash()),
      trace_template_(
          trimmed_spec(paper_trace_spec(0), window_end(spec.window))),
      seeder_(spec.seed),
      instance_(cc2_instance()) {
  // starts() is a pure function of the scenario cell; the trace spec
  // template is re-seeded per replication, and each replication
  // synthesizes only the span its experiment reads.
  const Scenario scenario{spec_.window, spec_.slack_fraction,
                          spec_.checkpoint_cost, spec_.starts_grid};
  starts_ = scenario.starts();
  // Fixed-policy configs run through the batched lockstep engine under any
  // engine options; adaptive / large-bid lanes stay scalar.
  for (std::size_t c = 0; c < spec_.configs.size(); ++c) {
    if (spec_.configs[c].kind == EnsembleConfig::Kind::kFixedPolicy)
      batchable_.push_back(c);
  }
  if (batchable_.size() < 2) batchable_.clear();
  is_batched_.assign(spec_.configs.size(), 0);
  for (const std::size_t c : batchable_) is_batched_[c] = 1;
}

std::pair<std::size_t, std::size_t> ShardExecutor::bounds(
    std::size_t s) const {
  return shard_bounds(spec_.replications, spec_.num_shards, s);
}

ShardExecutor::Acc ShardExecutor::make_acc() const {
  Acc acc;
  // Identical estimator options on every shard: the bootstrap seed is per
  // config/group, derived from the spec seed, and must agree across shards
  // for the shard merge to be a valid single-stream bootstrap.
  auto opts = [this](std::uint64_t stream) {
    return StreamingSummaryOptions{spec_.bootstrap_replicates, spec_.ci_level,
                                   seeder_.seed(stream,
                                                SeedDomain::kBootstrap)};
  };
  for (std::size_t c = 0; c < spec_.configs.size(); ++c)
    acc.configs.emplace_back(spec_.configs[c].display_label(), opts(c));
  for (std::size_t g = 0; g < spec_.min_groups.size(); ++g)
    acc.groups.emplace_back(spec_.min_groups[g].label,
                            opts(spec_.configs.size() + g));
  return acc;
}

Experiment ShardExecutor::make_experiment(std::size_t r) const {
  return Experiment::paper(starts_[r % starts_.size()], spec_.slack_fraction,
                           spec_.checkpoint_cost,
                           seeder_.seed(r, SeedDomain::kQueueDelay));
}

void ShardExecutor::run_replication(std::size_t r,
                                    std::span<RunResult> results) const {
  // This replication's independent substreams.
  SyntheticTraceSpec trace_spec = trace_template_;
  trace_spec.seed = seeder_.seed(r, SeedDomain::kTrace);
  const Experiment experiment = make_experiment(r);
  const SpotMarket market(experiment_traces(trace_spec, experiment),
                          instance_, QueueDelayModel());
  // One auditor per config: the audit follows each run live, so lanes
  // stepping in lockstep must not share one.
  std::vector<AuditObserver> audits;
  audits.reserve(spec_.configs.size());
  for (std::size_t c = 0; c < spec_.configs.size(); ++c)
    audits.emplace_back(experiment, instance_.on_demand_rate,
                        AuditMode::kFull, spec_.engine.regime);
  // Fixed-policy lanes advance in lockstep over this replication's trace
  // (bit-identical to the scalar runs below).
  if (!batchable_.empty()) {
    const batch::BatchedSweepEngine batcher(market, spec_.engine);
    for (std::size_t g = 0; g < batchable_.size(); g += kBatchWidth) {
      const std::size_t end = std::min(g + kBatchWidth, batchable_.size());
      std::vector<batch::BatchConfig> lanes;
      lanes.reserve(end - g);
      for (std::size_t k = g; k < end; ++k) {
        const EnsembleConfig& cfg = spec_.configs[batchable_[k]];
        lanes.push_back(batch::BatchConfig{experiment, cfg.policy, cfg.bid,
                                           cfg.zones, &audits[batchable_[k]]});
      }
      const std::vector<RunResult> runs = batcher.run(lanes);
      for (std::size_t k = g; k < end; ++k)
        results[batchable_[k]] = runs[k - g];
    }
  }
  // Scalar lanes: adaptive, large-bid, or a lone fixed policy.
  for (std::size_t c = 0; c < spec_.configs.size(); ++c) {
    if (is_batched_[c] != 0) continue;
    auto strategy = spec_.configs[c].make_strategy();
    Engine engine(market, experiment, *strategy, spec_.engine);
    engine.add_observer(&audits[c]);
    results[c] = engine.run();
  }
}

std::string ShardExecutor::compute(std::size_t s, const ProgressFn& progress,
                                   ThreadPool* pool) const {
  const auto [lo, hi] = bounds(s);
  const std::size_t configs = num_configs();
  ShardRecordBuilder builder(spec_hash_, s, lo, hi,
                             static_cast<std::uint32_t>(configs));
  // Every replication writes its own result slots; the record is built
  // afterwards in the canonical add_run order (replication ascending,
  // configs in index order), so the pooled payload is the serial one.
  std::vector<RunResult> results((hi - lo) * configs);
  std::mutex mutex;
  std::size_t done = 0;
  auto run = [&](std::size_t r) {
    run_replication(r, std::span<RunResult>(results).subspan(
                           (r - lo) * configs, configs));
    const std::lock_guard<std::mutex> lock(mutex);
    ++done;
    if (progress) progress(done);
  };
  if (pool == nullptr) {
    for (std::size_t r = lo; r < hi; ++r) run(r);
  } else {
    // parallel_for wraps a body's exception in ParallelError; rethrow the
    // original instead, from the lowest failing replication — the serial
    // loop's failure, since chunks are claimed in ascending order and
    // claimed chunks always drain. One slot per replication: no thread
    // releases an exception another may still be reading.
    std::vector<std::exception_ptr> failures(hi - lo);
    try {
      parallel_for(*pool, lo, hi, [&](std::size_t r) {
        try {
          run(r);
        } catch (...) {
          failures[r - lo] = std::current_exception();
          throw;
        }
      });
    } catch (const ParallelError&) {
      for (const std::exception_ptr& failure : failures) {
        if (failure != nullptr) std::rethrow_exception(failure);
      }
      throw;
    }
  }
  for (const RunResult& result : results) builder.add_run(result);
  return builder.payload();
}

bool ShardExecutor::matches(const EnsembleShardRecord& rec) const {
  if (rec.spec_hash != spec_hash_) return false;
  if (rec.shard >= spec_.num_shards) return false;
  if (rec.num_configs != num_configs()) return false;
  const auto [lo, hi] = bounds(static_cast<std::size_t>(rec.shard));
  return rec.lo == lo && rec.hi == hi;
}

bool ShardExecutor::audit(const EnsembleShardRecord& rec) const {
  const std::size_t configs = num_configs();
  for (std::size_t r = static_cast<std::size_t>(rec.lo);
       r < static_cast<std::size_t>(rec.hi); ++r) {
    const RunResult* results =
        rec.runs.data() + (r - static_cast<std::size_t>(rec.lo)) * configs;
    const RunValidator validator(make_experiment(r), instance_.on_demand_rate,
                                 spec_.engine.regime);
    for (std::size_t c = 0; c < configs; ++c) {
      if (!validator.audit(results[c], AuditMode::kReplay).empty())
        return false;
    }
  }
  return true;
}

void ShardExecutor::fold(const EnsembleShardRecord& rec, Acc& acc) const {
  REDSPOT_CHECK_MSG(matches(rec), "folding a foreign shard record");
  const std::size_t configs = num_configs();
  for (std::size_t r = static_cast<std::size_t>(rec.lo);
       r < static_cast<std::size_t>(rec.hi); ++r) {
    const RunResult* results =
        rec.runs.data() + (r - static_cast<std::size_t>(rec.lo)) * configs;
    // The canonical fold order — configs in index order, then min-groups,
    // per replication — is what makes every consumer bit-identical.
    for (std::size_t c = 0; c < configs; ++c)
      acc.configs[c].fold(r, results[c]);
    for (std::size_t g = 0; g < spec_.min_groups.size(); ++g) {
      const MinGroup& group = spec_.min_groups[g];
      std::size_t best = group.members.front();
      for (const std::size_t m : group.members) {
        if (results[m].total_cost < results[best].total_cost) best = m;
      }
      acc.groups[g].fold(r, results[best]);
    }
  }
}

EnsembleResult ShardExecutor::reduce(std::vector<Acc>&& shards) const {
  REDSPOT_CHECK(!shards.empty());
  EnsembleResult result;
  result.ci_level = spec_.ci_level;
  Acc merged = std::move(shards.front());
  for (std::size_t s = 1; s < shards.size(); ++s) {
    for (std::size_t c = 0; c < merged.configs.size(); ++c)
      merged.configs[c].merge(shards[s].configs[c]);
    for (std::size_t g = 0; g < merged.groups.size(); ++g)
      merged.groups[g].merge(shards[s].groups[g]);
  }
  result.configs = std::move(merged.configs);
  result.groups = std::move(merged.groups);
  return result;
}

}  // namespace redspot
