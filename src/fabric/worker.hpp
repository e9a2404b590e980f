// Fabric worker: computes leased shards and streams the partials back.
//
// A worker is a deliberately simple, expendable process: one blocking
// unix-socket connection, one lease at a time, shards computed strictly
// in lease order through the same ShardExecutor the coordinator and the
// in-process runner use. Within a shard, the replications run on a pool
// of FabricOptions::threads threads (built on the first lease); the
// partial is still the canonical record, byte for byte. A failing
// simulation or audit (CheckFailure) ends the process rather than looking
// like a lost connection. Heartbeats ride the compute progress callback
// (sent at most every heartbeat_interval_ms), so a wedged simulation is
// indistinguishable from a dead worker — which is exactly the coordinator
// policy we want.
//
// Reconnects use the fault module's exponential backoff with jitter
// (interpreted in milliseconds); a worker that cannot reach a coordinator
// within give_up_ms exits nonzero rather than spinning forever. A
// ChaosPlan makes the worker SIGKILL itself mid-shard on schedule — the
// test fleet's fault injector.
#pragma once

#include "ensemble/spec.hpp"
#include "fabric/chaos.hpp"
#include "fabric/fabric.hpp"

namespace redspot::fabric {

/// Runs the worker loop to completion. Returns the process exit code:
/// 0 = coordinator said Done; 1 = could not reach a coordinator within
/// give_up_ms; 2 = coordinator rejected the handshake or broke protocol.
/// `spec` must be validated and describe the same run the coordinator
/// was started with (enforced via the spec-hash handshake).
int run_worker(const EnsembleSpec& spec, const FabricOptions& options,
               const ChaosPlan& chaos);

}  // namespace redspot::fabric
