// Typed journal record schemas.
//
// Three record kinds ride the RunJournal framing:
//
//   * kEnsembleShard — one completed shard of an EnsembleRunner sweep:
//     (spec_hash, shard, [lo, hi), num_configs) plus one compact RunResult
//     per (replication, config), replication-major. Replaying the record
//     folds exactly the scalars ConfigSummary::fold consumes, in exactly
//     the live order, so a resumed run is bit-identical to an
//     uninterrupted one (the fixed-shard determinism contract).
//   * kSweepChunk — one audited RunResult of an exp/ sweep, keyed by
//     (sweep_key, chunk).
//   * kCleanStop — a graceful-interruption marker written by redspot-sim
//     after the drain, recording how far the run got.
//
// Compact RunResults carry every scalar the summaries and the sweep
// consumers read (costs in exact micro-dollars, counters, outcome flags,
// fault stats) but not the checkpoint_log — RunValidator re-audits
// replayed records in AuditMode::kReplay, which skips the log-derived
// cross-checks. Decoders are total: any structurally malformed payload
// yields nullopt (the caller recomputes), never UB.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/run_result.hpp"

namespace redspot {

enum class RecordType : std::uint32_t {
  kEnsembleShard = 1,
  kSweepChunk = 2,
  kCleanStop = 3,
  kFabricLease = 4,
};

/// Type tag of a record payload, or nullopt if too short / unknown.
std::optional<RecordType> record_type(std::string_view payload);

// --- ensemble shard records ------------------------------------------------

/// Incrementally encodes one shard's record while the shard computes, so
/// completed replications never need to be buffered as full RunResults.
class ShardRecordBuilder {
 public:
  ShardRecordBuilder(std::uint64_t spec_hash, std::uint64_t shard,
                     std::uint64_t lo, std::uint64_t hi,
                     std::uint32_t num_configs);

  /// Appends one compact run. Call (hi-lo)*num_configs times, replication-
  /// major in fold order.
  void add_run(const RunResult& r);

  /// The finished payload. Checks that every expected run was added.
  const std::string& payload() const;

 private:
  std::string buf_;
  std::uint64_t expected_;
  std::uint64_t added_ = 0;
};

struct EnsembleShardRecord {
  std::uint64_t spec_hash = 0;
  std::uint64_t shard = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint32_t num_configs = 0;
  /// (hi-lo)*num_configs compact runs, replication-major.
  std::vector<RunResult> runs;
};

std::optional<EnsembleShardRecord> decode_ensemble_shard(
    std::string_view payload);

// --- sweep chunk records ---------------------------------------------------

struct SweepChunkRecord {
  std::uint64_t sweep_key = 0;
  std::uint64_t chunk = 0;
  RunResult run;
};

std::string encode_sweep_chunk(std::uint64_t sweep_key, std::uint64_t chunk,
                               const RunResult& run);
std::optional<SweepChunkRecord> decode_sweep_chunk(std::string_view payload);

// --- fabric lease grants ---------------------------------------------------

/// One lease grant by the fabric coordinator (src/fabric/). Written ahead
/// of the grant so a resumed coordinator knows how many times each shard
/// was ever handed out: attempt numbers keep counting up across coordinator
/// crashes, which keeps ChaosPlan kill decisions (keyed on attempt)
/// deterministic for the whole run, not just one coordinator lifetime.
struct FabricLeaseRecord {
  std::uint64_t spec_hash = 0;
  std::uint64_t lease_id = 0;
  std::uint64_t shard_lo = 0;  ///< leased shard range [shard_lo, shard_hi)
  std::uint64_t shard_hi = 0;
  std::uint64_t attempt = 0;  ///< 1-based grant count of shard_lo
  std::uint64_t worker = 0;   ///< coordinator-local worker session id
};

std::string encode_fabric_lease(const FabricLeaseRecord& r);
std::optional<FabricLeaseRecord> decode_fabric_lease(std::string_view payload);

// --- clean-stop markers ----------------------------------------------------

struct CleanStopRecord {
  std::uint64_t key = 0;  ///< spec_hash or sweep_key of the interrupted run
  std::uint64_t units_done = 0;
  std::uint64_t units_total = 0;
};

std::string encode_clean_stop(const CleanStopRecord& r);
std::optional<CleanStopRecord> decode_clean_stop(std::string_view payload);

}  // namespace redspot
