// Shared pieces of the repository benchmark (see ../README.md): options,
// the outcome every workload fills, the span recorder, child processes,
// and the layer probes.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/run_result.hpp"
#include "market/spot_market.hpp"
#include "stats/descriptive.hpp"

namespace bench {

// Percentiles and medians are redspot::quantile / redspot::median (linear
// interpolation); both reject an empty sample set.
using redspot::median;
using redspot::quantile;

/// Every scalar of a run, in the journal's canonical encoding: equal bytes
/// mean bit-identical results.
std::string run_bytes(const redspot::RunResult& r);

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 0;  ///< measured time per run; --seconds is required
  bool trace = false;
  std::string bin_dir;   ///< holds redspot-serve and redspot-fabric
  std::string work_dir;  ///< sockets, journals and daemon logs
  std::string out_dir;   ///< trace-<workload>.json, results-<workload>.json
  std::string golden;    ///< recorded digests for seed 42
  std::string commit;

  std::string bin(const std::string& name) const { return bin_dir + "/" + name; }
  std::string work(const std::string& name) const { return work_dir + "/" + name; }
};

/// What one workload run reports. A failed check counts against
/// `failed` and makes the run incorrect; it never just skews a number.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Provenance: sample counts behind the reported medians, and tail
  /// percentiles that are recorded but not bounded (README.md says why).
  std::map<std::string, double> samples;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed check (`failures` operations lost to it).
  void fail(const std::string& what, std::uint64_t failures = 1);
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// Checks `value` against the digest recorded for `key` in
/// benchmark/golden.txt when the seed is 42.
void check_golden(const Options& opt, const std::string& key,
                  const std::string& value, Outcome& out);

std::string hex64(std::uint64_t v);

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder: spans are taken around calls into each layer
/// from the benchmark's own code, kept in memory, and written out once at
/// exit. Disabled (the default), a Span costs one branch.
class Tracer {
 public:
  static Tracer& global();

  void enable(const std::string& workload);
  bool enabled() const { return enabled_; }

  int begin(const char* name, int parent);
  void end(int id);
  /// A span whose interval was measured elsewhere (e.g. an open-loop
  /// request, timed from when it was due to when its answer arrived).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              int parent);

  /// Writes every span plus per-name totals and self time (duration minus
  /// the part of it that child spans cover) as JSON.
  void write_json(const std::string& path) const;

  /// Durations in ms of every finished span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;

 private:
  struct Rec {
    std::string name;
    double start_us = 0;
    double end_us = -1;
    int parent = -1;
    std::uint64_t thread = 0;
  };
  bool enabled_ = false;
  std::string workload_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Rec> spans_;
};

/// RAII span. The parent defaults to the innermost open span on this
/// thread; pass one explicitly for work handed to pool threads.
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, int parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  int id_ = -1;
  int prev_ = -1;
};

// --- processes --------------------------------------------------------------

/// A child process with stdout/stderr redirected to files. The destructor
/// kills and reaps a child that is still running, so no path leaves one
/// behind.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& out_path,
        const std::string& err_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool running();
  void signal(int sig);
  /// Waits up to `timeout_s`, then SIGKILLs. Returns the exit code, or
  /// 128 + signal number for a child killed by a signal.
  int wait(double timeout_s);
  /// Resource usage of the reaped child (valid after wait()).
  const rusage& usage() const { return usage_; }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = 0;
  rusage usage_{};
};

std::string read_file(const std::string& path);
std::size_t file_size(const std::string& path);

double peak_rss_mb(const rusage& u);
double peak_rss_mb_self();
double cpu_seconds(const rusage& u);
double cpu_seconds_self();
std::string cpu_model();

// --- workloads --------------------------------------------------------------

Outcome run_paper_sweep(const Options& opt);
Outcome run_mc_ensemble(const Options& opt);
Outcome run_serve_mixed(const Options& opt);
Outcome run_fabric_tcp(const Options& opt);

// --- layer probes ------------------------------------------------------------
// Every traced run reports every per-layer metric. A workload that runs a
// layer itself reports that layer from its own traced pass; the others
// take it from these probes, on inputs derived from the same seed.

/// The market the probes run on in every workload but paper-sweep (which
/// uses its own): the paper calibration for `seed`, synthesized through
/// the high-volatility window (the span an ensemble replication covers).
redspot::SpotMarket probe_market(std::uint64_t seed);

/// Median ms to synthesize one ensemble replication's trace window, the
/// way ShardExecutor does, over 8 replications of `seed`.
double replication_generate_ms(std::uint64_t seed);

/// Times each layer's public functions on `market` (engine, batch index
/// and lanes, audit, Markov, adaptive history, advice, codecs, journal,
/// transport) and sets the per-layer metrics they own.
void layer_probes(const Options& opt, const redspot::SpotMarket& market,
                  Outcome& out);

/// serve.* per-layer metrics from a small daemon run (closed-loop round
/// trips, ticks, a pipelined burst); used by workloads without a daemon.
void serve_probe(const Options& opt, Outcome& out);

/// fabric.dispatch_ms_per_shard from a small TCP fleet run; used by
/// workloads without a fleet.
void fabric_probe(const Options& opt, Outcome& out);

/// ensemble.* per-layer metrics from a small shard-by-shard ensemble; used
/// by workloads that do not decompose an ensemble themselves.
void ensemble_probe(const Options& opt, Outcome& out);

}  // namespace bench
