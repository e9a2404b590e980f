// TCP + network-fault kill matrix for the distributed sweep fabric.
//
// The unix-socket matrix (fabric_chaos_test.cpp) proves the fabric
// survives process death; this suite proves it survives the *network*.
// Real coordinator/worker processes talk over TCP loopback while a seeded
// NetFaultInjector (worker --net-chaos) drops connections, delays writes,
// truncates frames mid-byte, duplicates deliveries and one-way-partitions
// the worker's send side — and every scenario's printed ensemble summary
// must stay bit-identical to the single-process redspot-sim reference:
//
//   * plain TCP, 2 and 4 workers, no faults;
//   * drop + delay + truncate + duplicate faults on every worker;
//   * one-way partitions, detected by heartbeat/hello deadlines rather
//     than EOF (a partitioned peer never EOFs — these runs hang without
//     the deadline machinery);
//   * network faults stacked on top of mid-shard SIGKILL chaos;
//   * the coordinator SIGKILLed mid-run over TCP and resumed from its
//     journal on the same (fixed) port.
//
// Convergence within the harness deadline IS part of the contract: every
// scenario is bounded by lease/heartbeat/handshake deadlines, never by
// luck.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "fleet_harness.hpp"

namespace redspot {
namespace {

namespace fs = std::filesystem;
using fleettest::FleetRun;
using fleettest::normalize;
using fleettest::pick_free_port;
using fleettest::run_fleet;
using fleettest::slurp;
using fleettest::spawn;
using fleettest::wait_for;

#ifndef REDSPOT_FABRIC_BIN
#error "REDSPOT_FABRIC_BIN must be defined to the redspot-fabric binary path"
#endif
#ifndef REDSPOT_SIM_BIN
#error "REDSPOT_SIM_BIN must be defined to the redspot-sim binary path"
#endif

/// The ensemble every process in the matrix must describe identically.
const std::vector<std::string> kSpecArgs = {
    "--policy", "periodic", "--zones",        "0",  "--seed", "77",
    "--replications", "36", "--shards", "12", "--no-cache"};

struct NetFleetConfig {
  int num_workers = 2;
  std::string chaos;            ///< process-kill plan (--chaos)
  std::string net_chaos;        ///< network-fault plan (--net-chaos)
  std::string journal_dir;
  std::size_t kill_coordinator_at = 0;
  /// Shortened when the scenario needs silence (a one-way partition) to
  /// be *detected*, not merely survived.
  std::string heartbeat_timeout_ms = "30000";
  std::string handshake_timeout_ms = "2000";
  std::string worker_threads = "0";  ///< --threads (0 = hardware)
};

FleetRun run_tcp_fleet(const fs::path& base, const std::string& tag,
                       const NetFleetConfig& cfg) {
  const std::uint16_t port = pick_free_port();
  EXPECT_GT(port, 0);
  const std::string endpoint = "tcp:127.0.0.1:" + std::to_string(port);

  std::vector<std::string> coord = {REDSPOT_FABRIC_BIN, "coordinator",
                                    "--socket", endpoint};
  coord.insert(coord.end(), kSpecArgs.begin(), kSpecArgs.end());
  coord.insert(coord.end(),
               {"--lease-ms", "120000", "--heartbeat-timeout-ms",
                cfg.heartbeat_timeout_ms, "--fallback-wait-ms", "30000"});
  if (!cfg.journal_dir.empty())
    coord.insert(coord.end(), {"--journal", cfg.journal_dir});

  std::vector<std::string> worker = {REDSPOT_FABRIC_BIN, "worker", "--socket",
                                     endpoint};
  worker.insert(worker.end(), kSpecArgs.begin(), kSpecArgs.end());
  worker.insert(worker.end(), {"--give-up-ms", "120000",
                               "--handshake-timeout-ms",
                               cfg.handshake_timeout_ms, "--threads",
                               cfg.worker_threads});
  if (!cfg.chaos.empty())
    worker.insert(worker.end(), {"--chaos", cfg.chaos});
  if (!cfg.net_chaos.empty())
    worker.insert(worker.end(), {"--net-chaos", cfg.net_chaos});

  const std::string journal_file =
      cfg.journal_dir.empty() ? "" : cfg.journal_dir + "/run.journal";
  const FleetRun run = run_fleet(
      base, tag, coord, [&](std::size_t) { return worker; }, cfg.num_workers,
      journal_file, cfg.kill_coordinator_at);
  std::cerr << tag << ": " << run.teardown_kills
            << " worker(s) SIGKILLed at teardown\n";
  return run;
}

/// True when any worker's captured output mentions the fault plan — the
/// injector provably fired rather than the scenario passing vacuously.
bool faults_fired(const fs::path& base, const std::string& tag,
                  int num_workers) {
  for (int i = 0; i < num_workers; ++i) {
    const std::string out =
        (base / (tag + "_worker" + std::to_string(i) + ".txt")).string();
    if (slurp(out).find("fault plan") != std::string::npos) return true;
  }
  return false;
}

class NetChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new fs::path(fs::path(::testing::TempDir()) / "redspot_netchaos");
    fs::remove_all(*base_);
    fs::create_directories(*base_);

    std::vector<std::string> args = {REDSPOT_SIM_BIN, "ensemble"};
    args.insert(args.end(), kSpecArgs.begin(), kSpecArgs.end());
    const std::string out = (*base_ / "reference.txt").string();
    const pid_t pid = spawn(args, out);
    const int status = wait_for(pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << slurp(out);
    reference_ = new std::string(normalize(slurp(out)));
    ASSERT_NE(reference_->find("policy"), std::string::npos) << *reference_;
  }

  static void TearDownTestSuite() {
    fs::remove_all(*base_);
    delete base_;
    delete reference_;
    base_ = nullptr;
    reference_ = nullptr;
  }

  void expect_identical(const FleetRun& run, const std::string& what) {
    ASSERT_TRUE(WIFEXITED(run.coordinator_status) &&
                WEXITSTATUS(run.coordinator_status) == 0)
        << what << ":\n"
        << run.output;
    EXPECT_EQ(normalize(run.output), *reference_)
        << what << " diverged from the single-process reference";
  }

  static fs::path* base_;
  static std::string* reference_;
};

fs::path* NetChaosTest::base_ = nullptr;
std::string* NetChaosTest::reference_ = nullptr;

TEST_F(NetChaosTest, PlainTcpBitIdenticalAcrossFleetSizes) {
  for (const int n : {2, 4}) {
    NetFleetConfig cfg;
    cfg.num_workers = n;
    const FleetRun run =
        run_tcp_fleet(*base_, "tcp_plain" + std::to_string(n), cfg);
    expect_identical(run, std::to_string(n) + " TCP workers");
    EXPECT_NE(run.output.find("fleet 12"), std::string::npos) << run.output;
  }
}

TEST_F(NetChaosTest, DropTruncateDuplicateDelayFaults) {
  // Every worker connection drops, delays, tears frames mid-byte and
  // double-delivers per the seeded schedule (no partitions here — those
  // get their own deadline-tuned scenario). The budget bounds the storm
  // so the run converges; the summary must not wobble by one bit.
  NetFleetConfig cfg;
  cfg.num_workers = 2;
  // Rate tuned empirically: fault sites are a pure function of the seeded
  // byte offsets, and this workload's writes land on few enough distinct
  // offsets that thinner rates never fire at all.
  cfg.net_chaos = "5:0.3:cdtu:8";
  const FleetRun run = run_tcp_fleet(*base_, "tcp_faults", cfg);
  expect_identical(run, "drop/delay/truncate/duplicate faults");
  EXPECT_TRUE(faults_fired(*base_, "tcp_faults", cfg.num_workers))
      << "fault plan never fired; the scenario is vacuous";
}

TEST_F(NetChaosTest, OneWayPartitionsDetectedByDeadlines) {
  // A partitioned worker keeps reading but its writes silently vanish —
  // no EOF, no RST. Without the hello/heartbeat deadlines this scenario
  // hangs; with them the coordinator declares the silent peer dead,
  // reassigns its lease, and the worker's own handshake timeout walks it
  // back to a fresh connection.
  NetFleetConfig cfg;
  cfg.num_workers = 2;
  cfg.net_chaos = "11:0.15:p:2";
  cfg.heartbeat_timeout_ms = "3000";
  cfg.handshake_timeout_ms = "1500";
  const FleetRun run = run_tcp_fleet(*base_, "tcp_partition", cfg);
  expect_identical(run, "one-way partitions");
}

TEST_F(NetChaosTest, NetworkFaultsStackedOnProcessKills) {
  // The full storm: every shard's first compute dies by SIGKILL and the
  // surviving traffic is dropped/delayed/torn/duplicated on top.
  NetFleetConfig cfg;
  cfg.num_workers = 2;
  cfg.chaos = "9:1.0:1";
  cfg.net_chaos = "7:0.05:cdtu:6";
  const FleetRun run = run_tcp_fleet(*base_, "tcp_storm", cfg);
  expect_identical(run, "network faults + process kills");
  EXPECT_GT(run.worker_respawns, 0) << "chaos plan never killed anyone";
}

TEST_F(NetChaosTest, TcpCoordinatorKilledAndResumedFromJournal) {
  // SO_REUSEADDR on the coordinator's listener is what makes this work:
  // the restart rebinds the same fixed port while old connections linger
  // in TIME_WAIT, and welcomed workers' fresh reconnect patience carries
  // them across the gap.
  const std::string journal_dir = (*base_ / "tcp_coordkill_journal").string();
  fs::create_directories(journal_dir);
  NetFleetConfig cfg;
  cfg.num_workers = 2;
  cfg.journal_dir = journal_dir;
  cfg.kill_coordinator_at = 2048;
  // Serial workers, so the kill lands mid-run: pooled ones can finish the
  // remaining shards between two polls of the journal.
  cfg.worker_threads = "1";
  const FleetRun run = run_tcp_fleet(*base_, "tcp_coordkill", cfg);
  expect_identical(run, "TCP coordinator kill-and-resume");
  EXPECT_NE(run.output.find("journal: replayed"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("journal: replayed 0 shards"), std::string::npos)
      << run.output;
}

}  // namespace
}  // namespace redspot
