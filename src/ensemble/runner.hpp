// EnsembleRunner: deterministic replicated Monte-Carlo sweeps.
//
// Runs every configuration of an EnsembleSpec over N independent trace
// realizations and streams the RunResults into O(configs) summary
// accumulators — per-replication results are folded and discarded, never
// stored. Execution is sharded over a ThreadPool with a fixed shard
// partition (parallel_for_shards): shard s accumulates its contiguous
// replication range in index order, and shard accumulators are merged in
// shard order afterwards, so the summary is bit-identical for any thread
// count. A process-wide result cache keyed by (spec hash) skips
// recomputation across sweeps. See DESIGN.md §8.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/run_result.hpp"
#include "ensemble/spec.hpp"
#include "ensemble/streaming.hpp"
#include "stats/descriptive.hpp"

namespace redspot {

class RunJournal;

/// Streaming summary of every replication of one configuration (or one
/// min-group): the cost distribution plus outcome and robustness counters.
class ConfigSummary {
 public:
  ConfigSummary() = default;
  ConfigSummary(std::string label, StreamingSummaryOptions cost_options);

  /// Folds replication `replication`'s audited result.
  void fold(std::uint64_t replication, const RunResult& r);

  /// Merges another shard's accumulator (call in shard order).
  void merge(const ConfigSummary& other);

  const std::string& label() const { return label_; }
  const StreamingSummary& cost() const { return cost_; }
  std::size_t count() const { return cost_.count(); }
  std::uint64_t deadline_misses() const { return deadline_misses_; }
  double miss_rate() const;
  std::uint64_t incomplete() const { return incomplete_; }
  std::uint64_t switched_to_on_demand() const { return switched_; }
  /// Replications in which at least one injected fault fired.
  std::uint64_t fault_affected() const { return fault_affected_; }
  const RunningStats& restarts() const { return restarts_; }
  const RunningStats& checkpoints() const { return checkpoints_; }
  const RunningStats& out_of_bid() const { return out_of_bid_; }

 private:
  std::string label_;
  StreamingSummary cost_;
  RunningStats restarts_;
  RunningStats checkpoints_;
  RunningStats out_of_bid_;
  std::uint64_t deadline_misses_ = 0;
  std::uint64_t incomplete_ = 0;
  std::uint64_t switched_ = 0;
  std::uint64_t fault_affected_ = 0;
};

struct EnsembleResult {
  std::vector<ConfigSummary> configs;  ///< parallel to spec.configs
  std::vector<ConfigSummary> groups;   ///< parallel to spec.min_groups
  double ci_level = 0.95;
  bool from_cache = false;

  // --- provenance of this run (not part of the summary contract) ----------
  /// Shards restored intact from the run journal vs. actually simulated.
  /// replay + recompute == spec.num_shards on a completed run.
  std::size_t shards_replayed = 0;
  std::size_t shards_recomputed = 0;
  /// True when a graceful stop ended the run before every shard finished;
  /// the summaries then cover only the completed shards and the result is
  /// neither cached nor comparable to a full run.
  bool interrupted = false;

  /// Summary rows (configs then groups) rendered via exp/report's
  /// ci_table. Deterministic: the string is part of the bit-identical
  /// contract bench_ensemble and ensemble_test compare across pools.
  std::string table(const std::string& title) const;
};

/// Durability / interruption controls for one EnsembleRunner::run call.
struct EnsembleRunOptions {
  /// When set, completed shards are appended to this journal as they
  /// finish, and shards already journaled under the same spec_hash (with
  /// matching shard bounds, checksum-intact and passing the replay audit)
  /// are folded from the journal instead of being re-simulated. Replay is
  /// bit-identical to recomputation: the journal stores the exact scalars
  /// ConfigSummary::fold consumes, folded in the exact live order.
  RunJournal* journal = nullptr;
  /// When set (e.g. by a SIGINT handler — common/interrupt.hpp), no new
  /// shards are claimed; in-flight shards finish and are journaled, then
  /// run() returns with interrupted == true.
  const std::atomic<bool>* stop = nullptr;
};

class EnsembleRunner {
 public:
  explicit EnsembleRunner(EnsembleSpec spec);

  const EnsembleSpec& spec() const { return spec_; }

  /// Runs the ensemble on `pool`. The result depends only on the spec,
  /// never on the pool size — and, with a journal, never on how many
  /// crashes or interruptions the run was resumed across.
  EnsembleResult run(ThreadPool& pool) const;
  EnsembleResult run(ThreadPool& pool, const EnsembleRunOptions& options) const;

  /// Convenience overload using the process-wide default pool.
  EnsembleResult run() const;

 private:
  EnsembleSpec spec_;
};

}  // namespace redspot
