#include "app/ensemble_cli.hpp"

#include <cstdio>
#include <cstdlib>

namespace redspot {

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "ensemble options: %s\n", msg.c_str());
  std::exit(2);
}

std::vector<std::size_t> parse_zones(const std::string& s) {
  std::vector<std::size_t> zones;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = s.find(',', pos);
    const std::string zone = s.substr(pos, comma - pos);
    zones.push_back(parse_number<std::size_t>("--zones", zone.c_str(), 0));
    if (comma == std::string::npos) return zones;
    pos = comma + 1;
  }
}

}  // namespace

void bad_option_value(const std::string& option, const char* text) {
  usage("bad " + option + " value '" + text + "'");
}

EnsembleCliArgs parse_ensemble_args(int argc, char** argv,
                                    std::vector<std::string>* extra) {
  EnsembleCliArgs a;
  auto need = [&](int i) -> const char* {
    if (i + 1 >= argc) usage("missing option value");
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    if (opt == "--window") {
      const std::string v = need(i++);
      if (v == "low") {
        a.window = VolatilityWindow::kLow;
      } else if (v == "high") {
        a.window = VolatilityWindow::kHigh;
      } else {
        usage("--window must be low or high");
      }
    } else if (opt == "--slack") {
      a.slack = parse_number(opt, need(i++), 0.0);
    } else if (opt == "--tc") {
      a.tc = parse_number<Duration>(opt, need(i++), 1, kDay);
    } else if (opt == "--policy") {
      a.policy = need(i++);
    } else if (opt == "--bid") {
      a.bid = Money::parse(need(i++));
    } else if (opt == "--threshold") {
      a.threshold = Money::parse(need(i++));
    } else if (opt == "--zones") {
      a.zones = parse_zones(need(i++));
    } else if (opt == "--seed") {
      a.seed = parse_number<std::uint64_t>(opt, need(i++), 0);
    } else if (opt == "--notice") {
      a.notice = parse_number<Duration>(opt, need(i++), 0, kDay);
    } else if (opt == "--replications") {
      a.replications = parse_number<std::size_t>(opt, need(i++), 1);
    } else if (opt == "--shards") {
      a.shards = parse_number<std::size_t>(opt, need(i++), 1);
    } else if (opt == "--threads") {
      // More threads than this is a typo, not a machine.
      a.threads = parse_number<std::size_t>(opt, need(i++), 0, 1024);
    } else if (opt == "--no-cache") {
      a.no_cache = true;
    } else if (opt == "--journal") {
      a.journal_dir = need(i++);
    } else if (extra != nullptr) {
      // Caller-specific option: hand it (and, conservatively, its value
      // if one follows that is not itself an option) back verbatim.
      extra->push_back(opt);
      if (i + 1 < argc && argv[i + 1][0] != '-') extra->push_back(argv[++i]);
    } else {
      usage("unknown option " + opt);
    }
  }
  return a;
}

EnsembleSpec make_ensemble_spec(const EnsembleCliArgs& args) {
  EnsembleSpec spec;
  spec.window = args.window;
  spec.slack_fraction = args.slack;
  spec.checkpoint_cost = args.tc;
  spec.seed = args.seed;
  spec.replications = args.replications;
  spec.num_shards = args.shards;
  spec.use_cache = !args.no_cache;
  spec.engine.regime.rebalance_notice = args.notice;

  EnsembleConfig config;
  if (args.policy == "adaptive") {
    config.kind = EnsembleConfig::Kind::kAdaptive;
  } else if (args.policy == "large-bid") {
    if (args.zones.size() != 1)
      usage("large-bid is single-zone (Fig. 6): pass one --zones entry");
    config.kind = EnsembleConfig::Kind::kLargeBid;
    config.threshold = args.threshold;
    config.zones = args.zones;
  } else {
    config.kind = EnsembleConfig::Kind::kFixedPolicy;
    config.bid = args.bid;
    config.zones = args.zones;
    bool known = false;
    for (PolicyKind kind :
         {PolicyKind::kPeriodic, PolicyKind::kMarkovDaly,
          PolicyKind::kRisingEdge, PolicyKind::kThreshold}) {
      if (args.policy == to_string(kind)) {
        config.policy = kind;
        known = true;
      }
    }
    if (!known) usage("unknown policy " + args.policy);
  }
  spec.configs.push_back(config);
  spec.validate();
  return spec;
}

}  // namespace redspot
