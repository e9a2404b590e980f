// redspot-bench: runs one benchmark workload and prints its result as the
// last line of standard output. Invoked by benchmark/run.sh, which builds
// the program and passes the directories below.
//
//   redspot-bench --workload NAME --seed N --seconds S --trace 0|1
//                 --bin-dir DIR --work-dir DIR --out-dir DIR --golden FILE
//                 [--commit SHA]
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

using namespace bench;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "redspot-bench: %s\n", msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--bin-dir") {
      o.bin_dir = v;
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--golden") {
      o.golden = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      usage("unknown option " + a);
    }
  }
  if (o.seconds <= 0) usage("--seconds is required and must be positive");
  return o;
}

std::string metrics_json(const Outcome& out) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    s += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + buf +
         ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return s + "}";
}

void write_results(const Options& opt, const Outcome& out) {
  std::ofstream f(opt.out_dir + "/results-" + opt.workload +
                  (opt.trace ? "-trace" : "") + ".json");
  f << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
    << ", \"seconds\": " << opt.seconds << ", \"trace\": " << (opt.trace ? 1 : 0)
    << ", \"runs\": 1, \"commit\": \"" << opt.commit << "\", \"cpu_model\": \""
    << cpu_model() << "\", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"build_type\": \"Release\", \"correct\": "
    << (out.correct() ? "true" : "false") << ", \"attempted\": " << out.attempted
    << ", \"failed\": " << out.failed << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : out.samples) {
    f << (first ? "" : ", ") << "\"" << name << "\": " << n;
    first = false;
  }
  f << "}, \"metrics\": " << metrics_json(out) << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.trace) Tracer::global().enable(opt.workload);
  // Set-up times are read by polling child processes at tens of
  // microseconds; the default 50 us timer slack would stretch every sleep.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  Outcome out;
  try {
    if (opt.workload == "paper-sweep") {
      out = run_paper_sweep(opt);
    } else if (opt.workload == "mc-ensemble") {
      out = run_mc_ensemble(opt);
    } else if (opt.workload == "serve-mixed") {
      out = run_serve_mixed(opt);
    } else if (opt.workload == "fabric-tcp") {
      out = run_fabric_tcp(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    out.attempted = 1;
    out.fail(std::string("aborted: ") + e.what());
  }
  if (out.attempted == 0) {
    out.attempted = 1;
    out.fail("no operation was attempted");
  }
  for (auto& [name, m] : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.fail("metric " + name + " is not a finite number");
      m.value = 0;
    }
  }

  for (const std::string& e : out.errors)
    std::fprintf(stderr, "redspot-bench: CHECK FAILED: %s\n", e.c_str());
  if (opt.trace)
    Tracer::global().write_json(opt.out_dir + "/trace-" + opt.workload + ".json");
  write_results(opt, out);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(out).c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
