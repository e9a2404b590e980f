// redspot-serve: the bid-advisor daemon (DESIGN.md §12).
//
// One process, three moving parts:
//
//   * the connection loop (transport::FramedLoop, common/transport) owns
//     the listener (unix socket or TCP) and every connection; this file
//     decodes its frames (serve/proto.hpp) and dispatches: trace traffic is applied
//     inline (TickStore is the single writer), advise requests pass the
//     load-shedding gate (serve/shed.hpp) and are submitted to the batcher
//     keyed by spec hash, stats/register are answered immediately;
//   * the Batcher<spec-hash, AdviseWork> over a ThreadPool runs advise
//     batches — per-key serialization IS the model-exclusivity discipline
//     compute_advice requires, and same-key requests queued behind a
//     running batch coalesce into one model resolution;
//   * the ModelRegistry shares ModelEntries across tenants and bounds
//     their total footprint (LRU byte accounting; an evicted entry is
//     rebuilt from the live trace on next use).
//
// Pool threads post responses to the loop, which never blocks on a
// peer: a reply the socket cannot take is queued, and a tenant that leaves
// more than FramedLoop::kMaxOutboundBytes unread is disconnected rather
// than stalling the batcher worker (and every tenant behind it).
//
// Shutdown (SIGINT/SIGTERM via common/interrupt): stop accepting, sweep
// every connection's already-buffered requests (bounded non-blocking
// rounds — bytes the clients wrote before the signal are still answered),
// drain the batcher, flush the queued replies (bounded by
// FramedLoop::kCloseFlushMs), print one final stats line, and return exit
// code 130.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace redspot::serve {

struct ServeOptions {
  /// Transport endpoint to listen on: "unix:PATH", "tcp:HOST:PORT", or a
  /// bare unix-socket path. tcp:HOST:0 binds an ephemeral port (see
  /// on_bound).
  std::string endpoint;
  /// Worker threads for advise batches; 0 = hardware concurrency.
  std::size_t threads = 0;
  std::size_t registry_bytes = 64u << 20;
  /// Batcher queue depth at which SLO-aware load shedding starts: over
  /// this bound, advise requests are answered from the last-good model
  /// snapshot with the staleness marker set (or Error "overloaded" when
  /// no snapshot exists) instead of queueing. 0 disables shedding.
  std::uint64_t shed_queue_limit = 1024;
  /// Print the per-second stats heartbeat and the final stats line.
  bool print_stats = true;
  /// Install SIGINT/SIGTERM handlers (tests running the server in-process
  /// manage the interrupt flag themselves).
  bool install_signal_handlers = true;
  /// Called once with the resolved bound endpoint (tcp:HOST:0 becomes the
  /// kernel-assigned port) before the first accept — in-process harnesses
  /// use it to learn where to dial. May be null.
  std::function<void(const std::string&)> on_bound;
};

/// Runs the daemon until interrupted. Returns the process exit code:
/// 130 after a graceful signal-driven drain, non-zero on fatal errors.
int run_server(const ServeOptions& options);

}  // namespace redspot::serve
