// ShardExecutor: the single source of truth for what one ensemble shard
// computes, how it is serialized, and how it folds into a summary.
//
// A shard is the unit of distribution, durability and recovery: shard s
// covers the fixed replication range shard_bounds(replications, num_shards,
// s), its simulation is a pure function of the EnsembleSpec, and its
// serialized form is exactly one kEnsembleShard journal record. Every
// consumer — the in-process EnsembleRunner, the crash-resume journal
// replay, and the distributed fabric's coordinator/worker fleet — goes
// through this one class:
//
//   compute(s)          -> the shard's canonical record payload
//   matches/audit(rec)  -> is this record trustworthy for this spec?
//   fold(rec, acc)      -> accumulate it (canonical order)
//   reduce(accs)        -> merge per-shard accumulators in shard order
//
// Because fold consumes only codec-preserved integer scalars and reduce
// merges in fixed shard order, the final EnsembleResult is bit-identical
// no matter which process computed which shard, in what order, how many
// times work was reassigned, or how often anything crashed in between.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "ensemble/runner.hpp"
#include "ensemble/seeder.hpp"
#include "ensemble/spec.hpp"
#include "journal/run_record.hpp"
#include "market/instance_type.hpp"
#include "trace/synthetic.hpp"

namespace redspot {

class ThreadPool;

/// The traces `experiment` reads, synthesized from `spec`: the span from
/// the start of its price history (start - history_span) to one step past
/// its deadline (the engine still reads the price at the deadline),
/// bit-identical to that slice of generate_traces(spec). Throws if the
/// span would start after the history does.
ZoneTraceSet experiment_traces(const SyntheticTraceSpec& spec,
                               const Experiment& experiment);

class ShardExecutor {
 public:
  /// Lanes per lockstep group when batching fixed-policy configs
  /// (core/batch). Execution-only: batched lanes are bit-identical to
  /// scalar runs, so the width is not part of spec_hash.
  static constexpr std::size_t kBatchWidth = 8;

  /// `spec` must be validated and outlive the executor.
  explicit ShardExecutor(const EnsembleSpec& spec);

  const EnsembleSpec& spec() const { return spec_; }
  std::uint64_t spec_hash() const { return spec_hash_; }
  std::size_t num_shards() const { return spec_.num_shards; }
  std::size_t num_configs() const { return spec_.configs.size(); }

  /// Replication range [lo, hi) of shard `s` (the fixed partition).
  std::pair<std::size_t, std::size_t> bounds(std::size_t s) const;

  /// Per-shard accumulator set; every shard must start from an identical
  /// one (same estimator options and bootstrap seeds) for the shard merge
  /// to be a valid single-stream reduction.
  struct Acc {
    std::vector<ConfigSummary> configs;
    std::vector<ConfigSummary> groups;
  };
  Acc make_acc() const;

  /// Called once per finished replication with the count of this shard's
  /// replications finished so far (1, 2, ..., hi - lo): a completion
  /// count, not a replication index. Never called concurrently, even on
  /// the pooled path — the fabric worker's heartbeat/chaos hook. Must not
  /// throw.
  using ProgressFn = std::function<void(std::size_t replications_done)>;

  /// Simulates shard `s` and returns its canonical kEnsembleShard record
  /// payload (journal format == wire format). Deterministic: depends only
  /// on (spec, s). With a `pool`, the shard's replications run through
  /// parallel_for and the record is still built in the canonical order, so
  /// the payload is byte-identical to the serial one. The pool must not be
  /// one whose task is making this call. Throws on simulation/audit
  /// failure: the lowest failing replication's original exception, on
  /// either path.
  std::string compute(std::size_t s, const ProgressFn& progress = {},
                      ThreadPool* pool = nullptr) const;

  /// True when `rec` addresses this exact spec and shard partition
  /// (spec_hash, shard index, replication bounds, config count). A foreign
  /// or stale record is simply not replayable.
  bool matches(const EnsembleShardRecord& rec) const;

  /// Re-audits every run of a matching record (AuditMode::kReplay). A
  /// checksum-intact but semantically corrupt record fails here and must
  /// be recomputed, never trusted.
  bool audit(const EnsembleShardRecord& rec) const;

  /// Folds a matching record into `acc` in the canonical order (configs in
  /// index order, then min-groups, per replication ascending).
  void fold(const EnsembleShardRecord& rec, Acc& acc) const;

  /// Merges per-shard accumulators in shard order into an EnsembleResult
  /// (summaries + ci_level; provenance fields are the caller's).
  EnsembleResult reduce(std::vector<Acc>&& shards) const;

 private:
  Experiment make_experiment(std::size_t r) const;
  /// Simulates replication `r` of every config into `results` (one slot
  /// per config, in index order). Touches no shared mutable state.
  void run_replication(std::size_t r, std::span<RunResult> results) const;

  const EnsembleSpec& spec_;
  std::uint64_t spec_hash_;
  /// Indices into spec_.configs on the batched path: the fixed policies,
  /// whatever the engine options; empty when fewer than two.
  std::vector<std::size_t> batchable_;
  /// Per config: 1 when it is in batchable_.
  std::vector<char> is_batched_;
  std::vector<SimTime> starts_;
  SyntheticTraceSpec trace_template_;
  ReplicationSeeder seeder_;
  InstanceType instance_;
};

}  // namespace redspot
