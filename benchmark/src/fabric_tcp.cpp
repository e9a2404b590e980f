// fabric-tcp: a redspot-fabric coordinator (with its durable journal) and
// two worker processes over TCP loopback. Compute per shard is small, so
// the run is dominated by cross-process dispatch: lease, partial, journal
// append + fsync, and ack — the path the in-process workloads bypass.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "app/ensemble_cli.hpp"
#include "bench.hpp"
#include "common/parallel.hpp"
#include "ensemble/runner.hpp"
#include "ensemble/shard_exec.hpp"
#include "journal/journal.hpp"

using namespace redspot;

namespace bench {

namespace {

constexpr std::size_t kWorkers = 2;
/// Replications and shards per fleet run (4 replications per shard); about
/// a second, so a run holds a dozen or more fleet runs.
constexpr std::size_t kReplications = 128;
constexpr std::size_t kShards = 32;
/// Journal poll intervals: while set-up is timed (coordinator banner, first
/// lease), while a traced run records its timeline, and otherwise.
constexpr auto kFinePoll = std::chrono::microseconds(20);
constexpr auto kTimelinePoll = std::chrono::microseconds(200);
constexpr auto kCoarsePoll = std::chrono::microseconds(500);
/// Port 0: the coordinator binds an ephemeral port and prints it.
constexpr const char* kEndpoint = "tcp:127.0.0.1:0";

/// One run of a redspot-fabric coordinator and its worker processes.
struct FabricJob {
  double wall_s = 0;        ///< coordinator spawn to coordinator exit
  double setup_s = 0;       ///< spawn until the first lease is journaled
  double worker_cpu_s = 0;  ///< CPU time of all workers
  double peak_rss_mb = 0;   ///< largest RSS of coordinator and workers
  std::uint64_t shards = 0;
  std::uint64_t fleet_shards = 0;
  std::uint64_t lost = 0;
  std::uint64_t fallback = 0;
  std::string table;        ///< coordinator stdout before its provenance
};

/// Everything after the title line: the coordinator and the in-process
/// reference title their tables differently only in provenance.
std::string table_body(const std::string& s) {
  const std::size_t nl = s.find('\n');
  return nl == std::string::npos ? std::string() : s.substr(nl + 1);
}

EnsembleSpec spec_of(const std::vector<std::string>& ensemble_args) {
  std::vector<std::string> argv{"redspot-bench"};
  argv.insert(argv.end(), ensemble_args.begin(), ensemble_args.end());
  std::vector<char*> ptrs;
  for (std::string& a : argv) ptrs.push_back(a.data());
  return make_ensemble_spec(
      parse_ensemble_args(static_cast<int>(ptrs.size()), ptrs.data(), nullptr));
}

/// Checks a finished job: its table must equal the in-process reference,
/// and every shard must have come from the fleet.
void check_job(const FabricJob& job, const std::string& reference,
               const std::string& name, Outcome& out) {
  out.attempted += job.shards;
  if (table_body(job.table).rfind(table_body(reference), 0) != 0)
    out.fail(name + ": coordinator table differs from the in-process EnsembleRunner",
             job.shards);
  if (job.fallback > 0)
    out.fail(name + ": " + std::to_string(job.fallback) + " shards fell back in-process",
             job.fallback);
  if (job.lost > 0) out.fail(name + ": " + std::to_string(job.lost) + " workers lost");
  if (job.fleet_shards != job.shards)
    out.fail(name + ": fleet computed " + std::to_string(job.fleet_shards) + " of " +
             std::to_string(job.shards) + " shards");
}

/// Dispatch cost per shard: fleet time not spent computing, where the
/// compute is each shard re-run in-process on one thread.
double dispatch_ms_per_shard(const FabricJob& job,
                             const std::vector<std::string>& ensemble_args) {
  const EnsembleSpec spec = spec_of(ensemble_args);
  const ShardExecutor exec(spec);
  std::vector<double> compute_ms(spec.num_shards, 0.0);
  ThreadPool pool(4);
  parallel_for(pool, 0, spec.num_shards, [&](std::size_t s) {
    Span span("ensemble.shard_compute_inprocess");
    const auto t0 = Clock::now();
    exec.compute(s);
    compute_ms[s] = seconds_since(t0) * 1e3;
  });
  double total = 0;
  for (double v : compute_ms) total += v;
  const double fleet_ms = (job.wall_s - job.setup_s) * 1e3 * kWorkers;
  return (fleet_ms - total) / static_cast<double>(spec.num_shards);
}

/// Ensemble options shared by the coordinator and every worker.
std::vector<std::string> fabric_args(std::uint64_t seed, std::size_t replications,
                                     std::size_t shards) {
  return {"--policy",       "periodic",
          "--bid",          "0.81",
          "--zones",        "0,1,2",
          "--window",       "high",
          "--slack",        "0.15",
          "--tc",           "300",
          "--seed",         std::to_string(seed),
          "--replications", std::to_string(replications),
          "--shards",       std::to_string(shards),
          "--no-cache"};
}

/// The summary table the coordinator prints for `ensemble_args`, computed
/// in-process by EnsembleRunner.
std::string reference_fabric_table(const std::vector<std::string>& ensemble_args) {
  ThreadPool pool(4);
  return EnsembleRunner(spec_of(ensemble_args)).run(pool).table("reference");
}

FabricJob run_fabric_job(const Options& opt,
                         const std::vector<std::string>& ensemble_args, bool timeline,
                         const std::string& tag) {
  Span span("fabric.job");
  const std::string journal_dir = opt.work(tag + ".journal");
  std::filesystem::remove_all(journal_dir);
  const std::string journal = journal_dir + "/" + RunJournal::kFileName;
  const std::string coord_out = opt.work(tag + ".coordinator.out");
  const std::string coord_err = opt.work(tag + ".coordinator.err");

  std::vector<std::string> argv{opt.bin("redspot-fabric"), "coordinator", "--socket",
                                kEndpoint, "--journal", journal_dir};
  argv.insert(argv.end(), ensemble_args.begin(), ensemble_args.end());
  FabricJob job;
  const auto t0 = Clock::now();
  Child coordinator(argv, coord_out, coord_err);

  // The coordinator prints its resolved endpoint (tcp port 0 becomes a
  // real port) on stderr once bound.
  const std::string banner = "fabric: listening on ";
  std::string bound;
  while (bound.empty()) {
    const std::string err = read_file(coord_err);
    const std::size_t at = err.find(banner);
    const std::size_t nl = at == std::string::npos ? at : err.find('\n', at);
    if (nl != std::string::npos) {
      bound = err.substr(at + banner.size(), nl - at - banner.size());
    } else if (!coordinator.running() || seconds_since(t0) > 30) {
      throw std::runtime_error("fabric: coordinator did not start: " + err);
    } else {
      std::this_thread::sleep_for(kFinePoll);
    }
  }
  std::vector<std::unique_ptr<Child>> fleet;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    std::vector<std::string> wargv{opt.bin("redspot-fabric"), "worker", "--socket", bound};
    wargv.insert(wargv.end(), ensemble_args.begin(), ensemble_args.end());
    const std::string base = opt.work(tag + ".worker" + std::to_string(w));
    fleet.push_back(std::make_unique<Child>(wargv, base + ".out", base + ".err"));
  }

  // Set-up ends when the first lease is journaled (a worker has joined).
  // With a timeline, each gap between journal appends (lease grants and
  // shard partials) becomes a span.
  std::size_t seen = file_size(journal);
  const std::size_t header = sizeof(RunJournal::kMagic);
  auto last_append = t0;
  while (coordinator.running()) {
    if (seconds_since(t0) > 150) throw std::runtime_error("fabric: run timed out");
    if (timeline || job.setup_s == 0) {
      const std::size_t size = file_size(journal);
      if (size > seen && size > header) {
        const auto now = Clock::now();
        if (job.setup_s == 0) {
          job.setup_s = std::chrono::duration<double>(now - t0).count();
          if (timeline) Tracer::global().record("fabric.setup", t0, now, span.id());
        } else if (timeline) {
          Tracer::global().record("fabric.journal_gap", last_append, now, span.id());
        }
        last_append = now;
        seen = size;
      }
    }
    std::this_thread::sleep_for(job.setup_s == 0 ? kFinePoll
                                : timeline      ? kTimelinePoll
                                                : kCoarsePoll);
  }
  job.wall_s = seconds_since(t0);
  const int rc = coordinator.wait(1.0);
  if (rc != 0) throw std::runtime_error("fabric: coordinator exited with " + std::to_string(rc));
  job.peak_rss_mb = peak_rss_mb(coordinator.usage());
  for (auto& w : fleet) {
    const int wrc = w->wait(10.0);
    if (wrc != 0) throw std::runtime_error("fabric: worker exited with " + std::to_string(wrc));
    job.worker_cpu_s += cpu_seconds(w->usage());
    job.peak_rss_mb = std::max(job.peak_rss_mb, peak_rss_mb(w->usage()));
  }

  const std::string text = read_file(coord_out);
  const std::size_t prov = text.find("fabric: workers seen");
  if (prov == std::string::npos) throw std::runtime_error("fabric: no provenance line");
  unsigned long long seen_w = 0, lost = 0, fleet_n = 0, replayed = 0, fallback = 0;
  if (std::sscanf(text.c_str() + prov,
                  "fabric: workers seen %llu lost %llu; shards fleet %llu replayed %llu "
                  "fallback %llu",
                  &seen_w, &lost, &fleet_n, &replayed, &fallback) != 5)
    throw std::runtime_error("fabric: unreadable provenance line");
  job.table = text.substr(0, prov);
  job.shards = fleet_n + replayed + fallback;
  job.fleet_shards = fleet_n;
  job.lost = lost;
  job.fallback = fallback;
  std::filesystem::remove_all(journal_dir);
  return job;
}

}  // namespace

void fabric_probe(const Options& opt, Outcome& out) {
  Span probe("fabric_probe");
  const std::vector<std::string> args = fabric_args(opt.seed, 32, 16);
  const FabricJob job = run_fabric_job(opt, args, false, "probe-fabric");
  check_job(job, reference_fabric_table(args), "fabric probe", out);
  out.set("fabric.dispatch_ms_per_shard", dispatch_ms_per_shard(job, args), "ms");
}

Outcome run_fabric_tcp(const Options& opt) {
  Outcome out;
  const std::vector<std::string> args = fabric_args(opt.seed, kReplications, kShards);
  const std::string reference = reference_fabric_table(args);

  if (opt.trace) {
    const FabricJob plain = run_fabric_job(opt, args, false, "plain");
    const FabricJob traced = run_fabric_job(opt, args, true, "traced");
    check_job(plain, reference, "fabric-tcp", out);
    check_job(traced, reference, "fabric-tcp traced", out);
    out.set("fabric.dispatch_ms_per_shard", dispatch_ms_per_shard(plain, args), "ms");
    out.set("trace.generate_ms", replication_generate_ms(opt.seed), "ms");
    out.set("parallel.busy_frac",
            plain.worker_cpu_s / ((plain.wall_s - plain.setup_s) * kWorkers), "ratio");
    out.set("trace_overhead_ratio", traced.wall_s / plain.wall_s, "ratio");
    layer_probes(opt, probe_market(opt.seed), out);
    serve_probe(opt, out);
    ensemble_probe(opt, out);
    return out;
  }

  // Measured loop: whole fleet runs until the next would overrun
  // opt.seconds (at least two).
  std::vector<double> job_ms, setup_s;
  std::uint64_t shards = 0;
  double peak = 0, elapsed = 0;
  const auto t0 = Clock::now();
  while (job_ms.size() < 2 || elapsed + job_ms.back() / 1e3 <= opt.seconds) {
    const FabricJob job =
        run_fabric_job(opt, args, false, "fabric" + std::to_string(job_ms.size()));
    check_job(job, reference, "fabric-tcp run " + std::to_string(job_ms.size()), out);
    job_ms.push_back(job.wall_s * 1e3);
    setup_s.push_back(job.setup_s);
    shards += job.shards;
    peak = std::max(peak, job.peak_rss_mb);
    elapsed = seconds_since(t0);
  }

  out.samples["jobs"] = static_cast<double>(job_ms.size());
  out.samples["latency_p95_ms"] = quantile(job_ms, 0.95);
  out.set("setup_s", median(setup_s), "s");
  out.set("throughput", static_cast<double>(shards) / elapsed, "1/s");
  out.set("latency_p50_ms", quantile(job_ms, 0.50), "ms");
  out.set("peak_rss_mb", peak, "MB");
  return out;
}

}  // namespace bench
