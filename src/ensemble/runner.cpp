#include "ensemble/runner.hpp"

#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "ensemble/cache.hpp"
#include "ensemble/shard_exec.hpp"
#include "exp/report.hpp"
#include "journal/journal.hpp"
#include "journal/run_record.hpp"
#include "stats/streaming.hpp"

namespace redspot {

ConfigSummary::ConfigSummary(std::string label,
                             StreamingSummaryOptions cost_options)
    : label_(std::move(label)), cost_(cost_options) {}

void ConfigSummary::fold(std::uint64_t replication, const RunResult& r) {
  cost_.add(replication, r.total_cost.to_double());
  restarts_.add(static_cast<double>(r.restarts));
  checkpoints_.add(static_cast<double>(r.checkpoints_committed));
  out_of_bid_.add(static_cast<double>(r.out_of_bid_terminations));
  if (!r.met_deadline) ++deadline_misses_;
  if (!r.completed) ++incomplete_;
  if (r.switched_to_on_demand) ++switched_;
  if (r.faults.any()) ++fault_affected_;
}

void ConfigSummary::merge(const ConfigSummary& other) {
  cost_.merge(other.cost_);
  restarts_.merge(other.restarts_);
  checkpoints_.merge(other.checkpoints_);
  out_of_bid_.merge(other.out_of_bid_);
  deadline_misses_ += other.deadline_misses_;
  incomplete_ += other.incomplete_;
  switched_ += other.switched_;
  fault_affected_ += other.fault_affected_;
}

double ConfigSummary::miss_rate() const {
  return count() == 0 ? 0.0
                      : static_cast<double>(deadline_misses_) /
                            static_cast<double>(count());
}

namespace {

/// Extra attempts for a shard whose body throws (see ShardRunOptions); the
/// shard accumulator and journal record are rebuilt from scratch on each
/// attempt, so a retry cannot double-fold.
constexpr std::size_t kShardRetryBudget = 1;

CiRow ci_row(const ConfigSummary& s, double ci_level) {
  CiRow row;
  row.label = s.label();
  row.n = s.count();
  row.mean = s.cost().mean();
  const auto [lo, hi] = s.cost().mean_ci();
  row.ci_lo = lo;
  row.ci_hi = hi;
  row.q1 = s.cost().q1();
  row.median = s.cost().median();
  row.q3 = s.cost().q3();
  row.miss_rate = s.miss_rate();
  const auto [mlo, mhi] =
      wilson_interval(s.deadline_misses(), s.count(), ci_level);
  row.miss_lo = mlo;
  row.miss_hi = mhi;
  return row;
}

}  // namespace

std::string EnsembleResult::table(const std::string& title) const {
  std::vector<CiRow> rows;
  rows.reserve(configs.size() + groups.size());
  for (const ConfigSummary& s : configs) rows.push_back(ci_row(s, ci_level));
  for (const ConfigSummary& s : groups) rows.push_back(ci_row(s, ci_level));
  return ci_table(title, rows, ci_level);
}

EnsembleRunner::EnsembleRunner(EnsembleSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

EnsembleResult EnsembleRunner::run(ThreadPool& pool) const {
  return run(pool, EnsembleRunOptions{});
}

EnsembleResult EnsembleRunner::run(ThreadPool& pool,
                                   const EnsembleRunOptions& run_options) const {
  const std::uint64_t key = spec_.spec_hash();
  if (spec_.use_cache) {
    if (const auto hit = EnsembleCache::global().lookup(key)) {
      EnsembleResult result = *hit;
      result.from_cache = true;
      return result;
    }
  }

  // The executor owns shard semantics (compute, serialize, audit, fold).
  // This function only orchestrates: pick replay vs recompute per shard,
  // run shards on the pool, journal what was computed, reduce in order.
  const ShardExecutor exec(spec_);

  // Intact journal records addressing this exact spec and shard partition.
  // Anything that does not match — foreign spec_hash, stale shard bounds,
  // wrong config count — is simply not replayable; the shard recomputes.
  std::vector<std::optional<EnsembleShardRecord>> replayable(spec_.num_shards);
  if (run_options.journal != nullptr) {
    for (const std::string& payload : run_options.journal->records()) {
      if (record_type(payload) != RecordType::kEnsembleShard) continue;
      std::optional<EnsembleShardRecord> rec = decode_ensemble_shard(payload);
      if (!rec || !exec.matches(*rec)) continue;
      replayable[static_cast<std::size_t>(rec->shard)] = std::move(rec);
    }
  }

  std::vector<ShardExecutor::Acc> shards(spec_.num_shards, exec.make_acc());

  enum : int { kNotRun = 0, kRecomputed = 1, kReplayed = 2 };
  std::vector<std::atomic<int>> shard_state(spec_.num_shards);

  parallel_for_shards(
      pool, spec_.replications, spec_.num_shards,
      [&](std::size_t shard, std::size_t, std::size_t) {
        // Retry- and replay-safe: rebuild this shard's outputs from
        // scratch on every attempt so nothing can be folded twice.
        shards[shard] = exec.make_acc();
        ShardExecutor::Acc& acc = shards[shard];

        if (replayable[shard].has_value()) {
          if (exec.audit(*replayable[shard])) {
            exec.fold(*replayable[shard], acc);
            shard_state[shard].store(kReplayed, std::memory_order_release);
            return;
          }
          // Checksum-intact but semantically corrupt (failed the replay
          // audit): never trust it — log and recompute.
          LOG_WARN << "journal: shard " << shard << " record failed the "
                   << "replay audit; recomputing";
        }

        // Live and replayed shards fold through the identical record path:
        // compute serializes, the fold consumes the codec-preserved
        // scalars, so a recomputed shard is bit-identical to a replayed
        // one by construction.
        const std::string payload = exec.compute(shard);
        const std::optional<EnsembleShardRecord> rec =
            decode_ensemble_shard(payload);
        REDSPOT_CHECK_MSG(rec.has_value() && exec.matches(*rec),
                          "self-computed shard record failed to decode");
        exec.fold(*rec, acc);
        // Write-ahead commit: the shard only counts once its record is
        // durable, so a crash between compute and append just recomputes.
        if (run_options.journal != nullptr)
          run_options.journal->append(payload);
        shard_state[shard].store(kRecomputed, std::memory_order_release);
      },
      ShardRunOptions{kShardRetryBudget, run_options.stop});

  // Deterministic reduction: fold shards in shard (= replication) order.
  EnsembleResult result = exec.reduce(std::move(shards));

  std::size_t done = 0;
  std::size_t replayed = 0;
  for (std::size_t s = 0; s < spec_.num_shards; ++s) {
    const int state = shard_state[s].load(std::memory_order_acquire);
    if (state != kNotRun) ++done;
    if (state == kReplayed) ++replayed;
  }
  result.interrupted = done < spec_.num_shards;

  // Interrupted results are partial: never cache them.
  if (spec_.use_cache && !result.interrupted)
    EnsembleCache::global().store(key, result);
  result.shards_replayed = replayed;
  result.shards_recomputed = done - replayed;
  return result;
}

EnsembleResult EnsembleRunner::run() const { return run(default_pool()); }

}  // namespace redspot
