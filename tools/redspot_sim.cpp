// redspot_sim — command-line front end for the simulator.
//
// Runs one policy configuration (or Adaptive, or Large-bid) over a
// scenario sweep and prints the cost distribution, or a single run with
// its full event trace.
//
//   redspot_sim [options]
//     --window low|high          volatility window        [high]
//     --slack F                  slack fraction of C      [0.15]
//     --tc SECONDS               checkpoint=restart cost  [300]
//     --policy NAME              periodic|markov-daly|rising-edge|
//                                threshold|adaptive|large-bid  [adaptive]
//     --bid DOLLARS              bid price (fixed policies)    [0.81]
//     --threshold DOLLARS        L for large-bid               [0.81]
//     --zones LIST               e.g. 0,1,2 (fixed policies;
//                                one zone for large-bid)       [0]
//     --experiments N            sweep size; 1 = single run    [20]
//     --chunk I                  chunk index for a single run  [0]
//     --seed S                   trace generator seed          [42]
//     --notice SECONDS           Appendix-A what-if: warn this long
//                                before each out-of-bid kill
//                                (MarketRegime::rebalance_notice
//                                on the classic market)        [0]
//     --trace FILE.csv           fixed-grid trace instead of synthetic
//     --events FILE.csv          raw change-event trace (resampled)
//     --timeline                 print the run's event trace after the
//                                summary (single run), one line per
//                                calendar event, zone transition, line
//                                item, checkpoint, fault and
//                                reconfiguration, ending in the R line —
//                                the EventTraceRecorder format of
//                                src/core/events/trace_recorder.hpp
//
//   A numeric value that is malformed or out of range (--tc and --notice
//   at most a day, --experiments at least 1) exits 2 with a usage message.
//
//   redspot_sim ensemble [options]
//     Monte-Carlo mode: evaluates the configuration over N independently
//     seeded trace realizations (src/ensemble/) and prints the cost
//     distribution with a bootstrap CI. Shares the options above (except
//     --experiments/--chunk/--trace/--events/--timeline), plus:
//     --replications N           trace realizations            [1000]
//     --shards N                 deterministic reduction shards  [64]
//     --threads N                worker threads; 0 = hardware     [0]
//     --no-cache                 bypass the process result cache
//     --journal DIR              durable shard journal: completed shards
//                                are persisted to DIR/run.journal as they
//                                finish, a rerun with the same spec and
//                                --journal replays them (bit-identical),
//                                and SIGINT/SIGTERM stops gracefully —
//                                drain, journal, exit 130 — instead of
//                                discarding finished work
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "app/ensemble_cli.hpp"
#include "common/interrupt.hpp"
#include "common/parallel.hpp"
#include "core/engine.hpp"
#include "core/events/trace_recorder.hpp"
#include "ensemble/runner.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "journal/journal.hpp"
#include "journal/run_record.hpp"
#include "market/spot_market.hpp"
#include "trace/csv_io.hpp"
#include "trace/resample.hpp"
#include "trace/synthetic.hpp"

using namespace redspot;

namespace {

/// Sweep / single-run options on top of the shared ensemble flags.
struct SimArgs {
  std::size_t experiments = 20;
  std::size_t chunk = 0;
  std::string trace_file;
  std::string events_file;
  bool timeline = false;
};

/// Bound on --experiments and --chunk (one sweep holds every result).
constexpr std::size_t kMaxExperiments = 1'000'000;

/// Flags that only `redspot_sim ensemble` accepts.
constexpr const char* kEnsembleOnlyFlags[] = {
    "--replications", "--shards", "--threads", "--no-cache", "--journal"};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "redspot_sim: %s (see the header of "
                       "tools/redspot_sim.cpp for options)\n",
               msg.c_str());
  std::exit(2);
}

/// Parses the options parse_ensemble_args handed back unrecognized.
SimArgs parse_sim_args(const std::vector<std::string>& extra) {
  SimArgs a;
  auto need = [&](std::size_t i) -> const char* {
    if (i + 1 >= extra.size()) usage("missing option value");
    return extra[i + 1].c_str();
  };
  for (std::size_t i = 0; i < extra.size(); ++i) {
    const std::string& opt = extra[i];
    if (opt == "--experiments") {
      a.experiments =
          parse_number<std::size_t>(opt, need(i++), 1, kMaxExperiments);
    } else if (opt == "--chunk") {
      a.chunk = parse_number<std::size_t>(opt, need(i++), 0, kMaxExperiments);
    } else if (opt == "--trace") {
      a.trace_file = need(i++);
    } else if (opt == "--events") {
      a.events_file = need(i++);
    } else if (opt == "--timeline") {
      a.timeline = true;
    } else {
      usage("unknown option " + opt);
    }
  }
  return a;
}

void print_run(const RunResult& r) {
  std::printf("cost %s (spot %s, on-demand %s)\n", r.total_cost.str().c_str(),
              r.spot_cost.str().c_str(), r.on_demand_cost.str().c_str());
  std::printf("checkpoints %d, restarts %d, out-of-bid %d, full outages %d, "
              "config changes %d\n",
              r.checkpoints_committed, r.restarts,
              r.out_of_bid_terminations, r.full_outages, r.config_changes);
  std::printf("%s, %s\n", r.completed ? "completed" : "INCOMPLETE",
              r.met_deadline ? "met deadline" : "MISSED DEADLINE");
}

/// `redspot_sim ensemble`: one configuration over N seeded realizations.
/// Option parsing and the option-to-spec mapping are shared with
/// redspot-fabric (src/app/ensemble_cli.hpp) so both front ends describe
/// the identical run.
int run_ensemble(const EnsembleCliArgs& args) {
  EnsembleSpec spec = make_ensemble_spec(args);

  ThreadPool pool(args.threads);
  const Scenario scenario{args.window, args.slack, args.tc, spec.starts_grid};
  const EnsembleRunner runner(spec);

  // With --journal, completed shards are persisted as they finish and a
  // SIGINT/SIGTERM drains gracefully instead of discarding finished work.
  std::unique_ptr<RunJournal> journal;
  EnsembleRunOptions run_options;
  if (!args.journal_dir.empty()) {
    std::filesystem::create_directories(args.journal_dir);
    journal = std::make_unique<RunJournal>(
        (std::filesystem::path(args.journal_dir) / RunJournal::kFileName)
            .string());
    install_interrupt_handlers();
    run_options.journal = journal.get();
    run_options.stop = &interrupt_flag();
  }
  const EnsembleResult result = runner.run(pool, run_options);

  std::fputs(result
                 .table("redspot_sim ensemble — " + scenario.label() +
                        ", seed " + std::to_string(args.seed))
                 .c_str(),
             stdout);
  const ConfigSummary& s = result.configs[0];
  std::printf("replications %zu (%s), incomplete %llu, "
              "switched to on-demand %llu\n",
              s.count(), result.from_cache ? "cached" : "computed",
              static_cast<unsigned long long>(s.incomplete()),
              static_cast<unsigned long long>(s.switched_to_on_demand()));
  if (journal != nullptr) {
    // Provenance on its own line so output comparisons can strip it.
    std::printf("journal: replayed %zu shards, recomputed %zu shards "
                "(recovered_tail=%d)\n",
                result.shards_replayed, result.shards_recomputed,
                journal->open_stats().recovered_tail ? 1 : 0);
  }
  if (result.interrupted) {
    const std::size_t done = result.shards_replayed + result.shards_recomputed;
    if (journal != nullptr) {
      journal->append(encode_clean_stop(
          CleanStopRecord{spec.spec_hash(), done, spec.num_shards}));
    }
    std::printf("interrupted: %zu / %zu shards journaled; rerun with the "
                "same options to resume\n",
                done, spec.num_shards);
    return 130;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "ensemble") == 0) {
    return run_ensemble(parse_ensemble_args(argc - 1, argv + 1, nullptr));
  }
  for (int i = 1; i < argc; ++i) {
    for (const char* flag : kEnsembleOnlyFlags)
      if (std::strcmp(argv[i], flag) == 0)
        usage(std::string("unknown option ") + flag);
  }
  std::vector<std::string> extra;
  const EnsembleCliArgs args = parse_ensemble_args(argc, argv, &extra);
  const SimArgs sim = parse_sim_args(extra);
  // The strategy and engine options come from the same mapping the
  // ensemble mode uses, so both modes read a flag identically.
  const EnsembleSpec spec = make_ensemble_spec(args);
  const EnsembleConfig& config = spec.configs.front();

  ZoneTraceSet traces = !sim.trace_file.empty()
                            ? read_csv_file(sim.trace_file)
                        : !sim.events_file.empty()
                            ? read_event_csv_file(sim.events_file)
                            : paper_traces(args.seed);
  SpotMarket market(std::move(traces), cc2_instance(), QueueDelayModel());

  Scenario scenario{args.window, args.slack, args.tc,
                    std::max<std::size_t>(sim.experiments, 1)};

  if (sim.experiments <= 1) {
    // Single-run mode: chunk indices address the paper's 80-chunk grid.
    scenario.num_experiments = std::max<std::size_t>(sim.chunk + 1, 80);
    const Experiment e = scenario.experiment(sim.chunk);
    auto strategy = config.make_strategy();
    Engine engine(market, e, *strategy, spec.engine);
    EventTraceRecorder trace;
    if (sim.timeline) engine.add_observer(&trace);
    print_run(engine.run());
    std::fputs(trace.str().c_str(), stdout);
    return 0;
  }

  std::vector<double> costs(scenario.num_experiments);
  std::vector<RunResult> results(scenario.num_experiments);
  for (std::size_t i = 0; i < scenario.num_experiments; ++i) {
    auto strategy = config.make_strategy();
    Engine engine(market, scenario.experiment(i), *strategy, spec.engine);
    results[i] = engine.run();
    costs[i] = results[i].total_cost.to_double();
  }
  const BoxRow row = make_box_row(args.policy, costs);
  std::fputs(boxplot_table("redspot_sim — " + scenario.label(),
                           std::vector<BoxRow>{row}, Money::dollars(48.0),
                           Money::dollars(5.40))
                 .c_str(),
             stdout);
  int missed = 0;
  for (const RunResult& r : results)
    if (!r.met_deadline) ++missed;
  std::printf("deadline misses: %d / %zu\n", missed, results.size());
  return 0;
}
