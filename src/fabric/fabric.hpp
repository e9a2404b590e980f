// Shared fabric configuration and wall-clock helpers.
//
// Timing defaults are sized for the chaos tests' worst case — a 1-CPU
// machine running under ASan where one replication can take tens of
// milliseconds: heartbeats are cheap (send every 250 ms), death verdicts
// are conservative (2 s of silence), and a lease outlives any honest
// shard (10 s).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/transport/fault.hpp"
#include "fabric/lease.hpp"
#include "fault/fault_plan.hpp"

namespace redspot {
class ThreadPool;
}

namespace redspot::fabric {

struct FabricOptions {
  /// Transport endpoint the coordinator listens on / workers dial:
  /// "unix:PATH", "tcp:HOST:PORT", or a bare unix-socket path.
  std::string endpoint;
  LeaseConfig lease;
  /// Worker, and the coordinator's in-process fallback: threads computing
  /// one shard's replications (0 = hardware, 1 = the serial loop). The
  /// ensemble options' --threads; not part of the spec.
  std::size_t threads = 0;
  /// Coordinator: with zero workers connected for this long, give up on
  /// the fleet and finish the run in-process (never hang).
  std::int64_t fallback_wait_ms = 3'000;
  /// Worker: how often to heartbeat while computing.
  std::int64_t heartbeat_interval_ms = 250;
  /// Worker: total wall clock spent failing to (re)connect before exiting.
  std::int64_t give_up_ms = 20'000;
  /// Worker: abandon a connection whose handshake never completes within
  /// this budget and reconnect. Over a faulty network the Hello (or the
  /// Welcome) can vanish into a one-way partition; without this deadline
  /// a partitioned worker would wait for the Welcome forever.
  std::int64_t handshake_timeout_ms = 2'000;
  /// Worker: reconnect backoff (interpreted in milliseconds).
  BackoffPolicy reconnect{/*base=*/100, /*cap=*/2'000, /*jitter=*/0.5};
  /// Worker: optional seeded network-fault injector; every connection the
  /// worker makes is wrapped. Test instrumentation — null in production.
  transport::NetFaultInjector* net_fault = nullptr;
};

/// The pool a shard's replications are computed on for `threads` (see
/// FabricOptions::threads): null for 1, which selects the serial loop.
std::unique_ptr<ThreadPool> make_compute_pool(std::size_t threads);

/// Monotonic wall clock in milliseconds (CLOCK_MONOTONIC; immune to
/// wall-time jumps — all lease/heartbeat arithmetic uses this).
std::int64_t mono_ms();

/// Sleeps for `ms`, resuming across EINTR.
void sleep_ms(std::int64_t ms);

}  // namespace redspot::fabric
