// redspot_fabric — distributed ensemble front end (coordinator + worker).
//
// Both subcommands take the same ensemble options as `redspot-sim
// ensemble` (shared parser: src/app/ensemble_cli.hpp) and must be given
// identical values — the spec-hash handshake rejects a worker describing
// a different run.
//
// `--threads N` (an ensemble option; 0 = hardware, the default) sizes the
// pool a worker computes each leased shard's replications on, and the
// coordinator's in-process fallback likewise; 1 computes them serially.
// Results are bit-identical for any value.
//
// `--socket` takes a transport endpoint: a unix-socket path (bare or
// "unix:PATH") or "tcp:HOST:PORT" for off-box fleets (tcp:0.0.0.0:PORT to
// accept workers from other hosts).
//
//   redspot-fabric coordinator --socket ENDPOINT [ensemble options]
//     --journal DIR            durable journal: completed shards and
//                              lease grants are persisted, and a killed
//                              coordinator restarted with the same flags
//                              resumes without rerunning finished shards
//     --lease-ms N             lease duration              [10000]
//     --heartbeat-timeout-ms N silence before a worker is dead  [2000]
//     --fallback-wait-ms N     empty-fleet patience before finishing
//                              the run in-process          [3000]
//
//   redspot-fabric worker --socket ENDPOINT [ensemble options]
//     --chaos SEED:RATE[:ATTEMPTS]  deterministically SIGKILL itself
//                              mid-shard (testing; see fabric/chaos.hpp)
//     --net-chaos SEED:RATE[:KINDS[:BUDGET]]  seeded network faults on
//                              every connection (testing; see
//                              common/transport/fault.hpp)
//     --heartbeat-interval-ms N     liveness cadence       [250]
//     --give-up-ms N           reconnect patience          [20000]
//     --handshake-timeout-ms N abandon a half-open handshake [2000]
//
// The coordinator prints the same summary table an in-process ensemble
// run prints — bit-identical numbers whatever the fleet did — plus
// "fabric:"/"journal:" provenance lines that comparisons strip.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "app/ensemble_cli.hpp"
#include "ensemble/runner.hpp"
#include "exp/scenario.hpp"
#include "fabric/chaos.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/fabric.hpp"
#include "fabric/worker.hpp"
#include "journal/journal.hpp"

using namespace redspot;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "redspot-fabric: %s (see the header of "
                       "tools/redspot_fabric.cpp for options)\n",
               msg.c_str());
  std::exit(2);
}

std::int64_t parse_ms(const std::string& opt, const std::string& v) {
  char* end = nullptr;
  const std::int64_t ms = std::strtoll(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || ms <= 0) usage("bad value for " + opt);
  return ms;
}

/// Fabric-specific options left over by the shared ensemble parser.
struct FabricArgs {
  fabric::FabricOptions options;
  fabric::ChaosPlan chaos;
  transport::NetFaultPlan net_chaos;
};

FabricArgs parse_fabric_extra(const std::vector<std::string>& extra,
                              bool is_worker) {
  FabricArgs f;
  for (std::size_t i = 0; i < extra.size(); ++i) {
    const std::string& opt = extra[i];
    auto need = [&]() -> const std::string& {
      if (i + 1 >= extra.size()) usage("missing value for " + opt);
      return extra[++i];
    };
    if (opt == "--socket") {
      f.options.endpoint = need();
    } else if (opt == "--lease-ms" && !is_worker) {
      f.options.lease.lease_duration_ms = parse_ms(opt, need());
    } else if (opt == "--heartbeat-timeout-ms" && !is_worker) {
      f.options.lease.heartbeat_timeout_ms = parse_ms(opt, need());
    } else if (opt == "--fallback-wait-ms" && !is_worker) {
      f.options.fallback_wait_ms = parse_ms(opt, need());
    } else if (opt == "--heartbeat-interval-ms" && is_worker) {
      f.options.heartbeat_interval_ms = parse_ms(opt, need());
    } else if (opt == "--give-up-ms" && is_worker) {
      f.options.give_up_ms = parse_ms(opt, need());
    } else if (opt == "--handshake-timeout-ms" && is_worker) {
      f.options.handshake_timeout_ms = parse_ms(opt, need());
    } else if (opt == "--chaos" && is_worker) {
      const auto plan = fabric::parse_chaos_plan(need());
      if (!plan) usage("bad --chaos (want SEED:RATE[:ATTEMPTS])");
      f.chaos = *plan;
    } else if (opt == "--net-chaos" && is_worker) {
      const auto plan = transport::parse_net_fault_plan(need());
      if (!plan) usage("bad --net-chaos (want SEED:RATE[:KINDS[:BUDGET]])");
      f.net_chaos = *plan;
    } else {
      usage("unknown option " + opt);
    }
  }
  if (f.options.endpoint.empty()) usage("--socket is required");
  if (!transport::parse_endpoint(f.options.endpoint))
    usage("bad --socket endpoint " + f.options.endpoint);
  return f;
}

int run_coordinator(const EnsembleCliArgs& args, const FabricArgs& fargs) {
  const EnsembleSpec spec = make_ensemble_spec(args);

  std::unique_ptr<RunJournal> journal;
  if (!args.journal_dir.empty()) {
    std::filesystem::create_directories(args.journal_dir);
    journal = std::make_unique<RunJournal>(
        (std::filesystem::path(args.journal_dir) / RunJournal::kFileName)
            .string());
  }

  fabric::Coordinator coordinator(spec, fargs.options, journal.get());
  // Resolved endpoint (tcp:HOST:0 becomes the kernel-assigned port) on
  // stderr, unbuffered, so scripts can learn where to point workers.
  // "fabric:" prefix: output comparisons strip it.
  std::fprintf(stderr, "fabric: listening on %s\n",
               coordinator.endpoint().c_str());
  const fabric::CoordinatorReport report = coordinator.run();

  const Scenario scenario{args.window, args.slack, args.tc, spec.starts_grid};
  std::fputs(report.result
                 .table("ensemble — " + scenario.label() + ", seed " +
                        std::to_string(args.seed))
                 .c_str(),
             stdout);
  const ConfigSummary& s = report.result.configs[0];
  std::printf("replications %zu (computed), incomplete %llu, "
              "switched to on-demand %llu\n",
              s.count(),
              static_cast<unsigned long long>(s.incomplete()),
              static_cast<unsigned long long>(s.switched_to_on_demand()));
  // Provenance on its own lines so output comparisons can strip them.
  std::printf("fabric: workers seen %llu lost %llu; shards fleet %llu "
              "replayed %llu fallback %llu; duplicate partials %llu%s\n",
              static_cast<unsigned long long>(report.workers_seen),
              static_cast<unsigned long long>(report.workers_lost),
              static_cast<unsigned long long>(report.shards_from_fleet),
              static_cast<unsigned long long>(report.shards_replayed),
              static_cast<unsigned long long>(report.shards_fallback),
              static_cast<unsigned long long>(report.duplicate_partials),
              report.used_fallback ? " (in-process fallback)" : "");
  if (journal != nullptr) {
    std::printf("journal: replayed %zu shards, recomputed %zu shards "
                "(recovered_tail=%d)\n",
                report.result.shards_replayed,
                report.result.shards_recomputed,
                journal->open_stats().recovered_tail ? 1 : 0);
  }
  return 0;
}

int run_worker_cmd(const EnsembleCliArgs& args, const FabricArgs& fargs) {
  const EnsembleSpec spec = make_ensemble_spec(args);
  transport::NetFaultInjector injector(fargs.net_chaos);
  fabric::FabricOptions options = fargs.options;
  if (fargs.net_chaos.enabled()) options.net_fault = &injector;
  const int rc = fabric::run_worker(spec, options, fargs.chaos);
  if (fargs.net_chaos.enabled() && injector.injected() > 0) {
    // Stderr, like the listening banner: chaos bookkeeping must never
    // perturb the bit-compared result stream.
    std::fprintf(stderr, "fabric: fault plan fired %llu times\n",
                 static_cast<unsigned long long>(injector.injected()));
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("expected a subcommand: coordinator | worker");
  const std::string cmd = argv[1];
  const bool is_worker = cmd == "worker";
  if (!is_worker && cmd != "coordinator")
    usage("unknown subcommand " + cmd);

  std::vector<std::string> extra;
  const EnsembleCliArgs args =
      parse_ensemble_args(argc - 1, argv + 1, &extra);
  FabricArgs fargs = parse_fabric_extra(extra, is_worker);
  fargs.options.threads = args.threads;
  return is_worker ? run_worker_cmd(args, fargs)
                   : run_coordinator(args, fargs);
}
