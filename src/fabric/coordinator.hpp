// Fabric coordinator: leases shards to a worker fleet, folds the partials.
//
// Single-threaded: it drives a transport::FramedLoop (unix socket or TCP —
// common/transport) over every connected worker and keeps only the
// dispatch of worker messages. The coordinator owns no simulation code of
// its own —
// validation, folding and the final reduction all go through
// ShardExecutor, and each accepted partial is journaled verbatim as the
// kEnsembleShard record the worker produced, so:
//
//   * the final EnsembleResult is bit-identical to the in-process
//     EnsembleRunner whatever the worker count, death order or
//     reassignment interleaving (fold order is fixed by shard index);
//   * a coordinator that is SIGKILLed and restarted replays completed
//     shards from the journal exactly like a single-process resume, and
//     re-grants only the remainder;
//   * lease grants are journaled too (kFabricLease), so per-shard attempt
//     counters — the ChaosPlan's key — survive the restart.
//
// Liveness: if no worker is connected for fallback_wait_ms the
// coordinator logs a warning and computes the remaining shards in-process
// (each shard's replications on FabricOptions::threads threads; shards
// already folded still count). It never hangs on an empty fleet.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ensemble/runner.hpp"
#include "ensemble/spec.hpp"
#include "fabric/fabric.hpp"

namespace redspot {
class RunJournal;
}

namespace redspot::fabric {

struct CoordinatorReport {
  EnsembleResult result;
  /// Shards folded from journal replay / received over the wire /
  /// computed by the in-process fallback.
  std::uint64_t shards_replayed = 0;
  std::uint64_t shards_from_fleet = 0;
  std::uint64_t shards_fallback = 0;
  std::uint64_t duplicate_partials = 0;
  std::uint64_t workers_seen = 0;
  std::uint64_t workers_lost = 0;
  bool used_fallback = false;
};

class Coordinator {
 public:
  /// `spec` must be validated and outlive the coordinator. `journal` may
  /// be null (no durability); when set, it is replayed on construction
  /// and appended to as partials arrive. The listener is bound here, in
  /// the constructor — callers may fork/spawn workers the moment this
  /// returns, and tcp:HOST:0 callers read the resolved port from
  /// endpoint(). Throws std::runtime_error on a bad or unbindable
  /// endpoint.
  Coordinator(const EnsembleSpec& spec, FabricOptions options,
              RunJournal* journal);
  ~Coordinator();

  /// The actual bound endpoint in canonical text form — resolves
  /// tcp:HOST:0 to the kernel-assigned port.
  std::string endpoint() const;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Runs to completion (all shards folded) and returns the report.
  /// Throws std::runtime_error on unrecoverable I/O failures.
  CoordinatorReport run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace redspot::fabric
