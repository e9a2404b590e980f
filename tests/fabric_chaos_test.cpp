// Kill-matrix integration test for the distributed sweep fabric.
//
// Forks the real redspot-fabric binary (REDSPOT_FABRIC_BIN) as one
// coordinator plus a worker fleet and proves the headline claim: the
// printed ensemble summary is bit-identical to a single-process
// `redspot-sim ensemble` run (REDSPOT_SIM_BIN) —
//
//   * for 1, 2 and 8 workers with no faults, computing each shard's
//     replications on a 3-thread pool, and for 2 serial workers;
//   * with a ChaosPlan SIGKILLing workers mid-shard every round (the
//     harness respawns them until the coordinator finishes);
//   * with the coordinator itself SIGKILLed mid-run and restarted on its
//     journal (completed shards replay, never recompute);
//   * with zero workers ever connecting (in-process fallback, exit 0).
//
// SIGKILL everywhere: no handlers, no drains — the strongest crash model
// the lease/journal machinery promises to absorb. The TCP + network-fault
// half of the matrix lives in net_chaos_test.cpp; the process-spawning
// machinery is shared (tests/fleet_harness.hpp).
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "fleet_harness.hpp"

namespace redspot {
namespace {

namespace fs = std::filesystem;
using fleettest::FleetRun;
using fleettest::normalize;
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

std::vector<std::string> coordinator_args(const std::string& socket,
                                          const std::string& journal_dir) {
  std::vector<std::string> args = {REDSPOT_FABRIC_BIN, "coordinator",
                                   "--socket", socket};
  args.insert(args.end(), kSpecArgs.begin(), kSpecArgs.end());
  // Generous lease/heartbeat budgets: a SIGKILLed worker is detected via
  // EOF immediately, so these only have to not false-positive on slow
  // sanitizer machines.
  args.insert(args.end(), {"--lease-ms", "120000", "--heartbeat-timeout-ms",
                           "30000", "--fallback-wait-ms", "30000"});
  if (!journal_dir.empty()) args.insert(args.end(), {"--journal", journal_dir});
  return args;
}

/// Workers compute a shard's 3 replications on `threads` threads: 3 runs
/// the pooled path even on a 1-vCPU machine, 1 the serial loop.
std::vector<std::string> worker_args(const std::string& socket,
                                     const std::string& chaos,
                                     const std::string& threads) {
  std::vector<std::string> args = {REDSPOT_FABRIC_BIN, "worker", "--socket",
                                   socket};
  args.insert(args.end(), kSpecArgs.begin(), kSpecArgs.end());
  args.insert(args.end(), {"--give-up-ms", "120000", "--threads", threads});
  if (!chaos.empty()) args.insert(args.end(), {"--chaos", chaos});
  return args;
}

/// Unix-socket fleet: the original kill matrix.
FleetRun run_unix_fleet(const fs::path& base, const std::string& tag,
                        int num_workers, const std::string& chaos,
                        const std::string& journal_dir = "",
                        std::size_t kill_coordinator_at = 0,
                        const std::string& threads = "3") {
  const std::string socket = (base / (tag + ".sock")).string();
  const std::string journal_file =
      journal_dir.empty() ? "" : journal_dir + "/run.journal";
  const FleetRun run = run_fleet(
      base, tag, coordinator_args(socket, journal_dir),
      [&](std::size_t) { return worker_args(socket, chaos, threads); },
      num_workers,
      journal_file, kill_coordinator_at);
  std::cerr << tag << ": " << run.teardown_kills
            << " worker(s) SIGKILLed at teardown\n";
  return run;
}

class FabricChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new fs::path(fs::path(::testing::TempDir()) / "redspot_fabric");
    fs::remove_all(*base_);
    fs::create_directories(*base_);

    // The single-process reference every fabric run must match.
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

  static fs::path* base_;
  static std::string* reference_;
};

fs::path* FabricChaosTest::base_ = nullptr;
std::string* FabricChaosTest::reference_ = nullptr;

TEST_F(FabricChaosTest, NoFaultsBitIdenticalAcrossFleetSizes) {
  // Pooled workers at every fleet size, plus one fleet on the serial loop.
  const std::vector<std::pair<int, std::string>> fleets = {
      {1, "3"}, {2, "3"}, {8, "3"}, {2, "1"}};
  for (const auto& [n, threads] : fleets) {
    const std::string tag =
        "plain" + std::to_string(n) + "x" + threads;
    const FleetRun run = run_unix_fleet(*base_, tag, n, /*chaos=*/"",
                                        /*journal_dir=*/"",
                                        /*kill_coordinator_at=*/0, threads);
    ASSERT_TRUE(WIFEXITED(run.coordinator_status) &&
                WEXITSTATUS(run.coordinator_status) == 0)
        << run.output;
    EXPECT_EQ(normalize(run.output), *reference_)
        << n << " workers on " << threads
        << " thread(s) diverged from the single-process reference";
    // The fleet, not the fallback, must have computed the shards.
    EXPECT_NE(run.output.find("fleet 12"), std::string::npos) << run.output;
  }
}

TEST_F(FabricChaosTest, WorkersKilledMidShardEveryRound) {
  // kill_rate 1.0 with a 1-attempt budget: every shard's FIRST compute is
  // SIGKILLed mid-shard; every reassignment (attempt 2) survives. The
  // harness respawns each casualty, so the run converges after ~12 kills
  // with reassignment traffic on every single shard.
  for (const int n : {1, 2, 8}) {
    const FleetRun run = run_unix_fleet(*base_, "chaos" + std::to_string(n), n,
                                        /*chaos=*/"9:1.0:1");
    ASSERT_TRUE(WIFEXITED(run.coordinator_status) &&
                WEXITSTATUS(run.coordinator_status) == 0)
        << run.output;
    EXPECT_EQ(normalize(run.output), *reference_)
        << n << " chaos workers diverged from the reference";
    EXPECT_GT(run.worker_respawns, 0) << "chaos plan never killed anyone";
  }
}

TEST_F(FabricChaosTest, CoordinatorKilledAndResumedFromJournal) {
  const std::string journal_dir = (*base_ / "coordkill_journal").string();
  fs::create_directories(journal_dir);
  // Wait for a couple of shard records (a shard record is ~1 KiB; lease
  // records are tens of bytes) so the resume provably replays work. The
  // workers run the serial loop: on pooled workers the remaining shards
  // can all land between two polls of the journal, and the coordinator
  // then finishes before it is killed.
  const FleetRun run =
      run_unix_fleet(*base_, "coordkill", /*num_workers=*/2, /*chaos=*/"",
                     journal_dir, /*kill_coordinator_at=*/2048,
                     /*threads=*/"1");
  ASSERT_TRUE(WIFEXITED(run.coordinator_status) &&
              WEXITSTATUS(run.coordinator_status) == 0)
      << run.output;
  EXPECT_EQ(normalize(run.output), *reference_)
      << "resumed coordinator diverged from the reference";
  // The restarted coordinator must replay journaled shards, not redo them.
  EXPECT_NE(run.output.find("journal: replayed"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("journal: replayed 0 shards"), std::string::npos)
      << run.output;
}

TEST_F(FabricChaosTest, ZeroWorkersFallsBackInProcess) {
  const std::string socket = (*base_ / "fallback.sock").string();
  const std::string out = (*base_ / "fallback_coord.txt").string();
  std::vector<std::string> args = {REDSPOT_FABRIC_BIN, "coordinator",
                                   "--socket", socket};
  args.insert(args.end(), kSpecArgs.begin(), kSpecArgs.end());
  args.insert(args.end(), {"--fallback-wait-ms", "500"});

  const pid_t pid = spawn(args, out);
  ASSERT_GT(pid, 0);
  const int status = wait_for(pid);
  const std::string text = slurp(out);
  // Warning, exit 0, no hang — and the same bits as everyone else.
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << text;
  EXPECT_NE(text.find("in-process fallback"), std::string::npos) << text;
  EXPECT_EQ(normalize(text), *reference_);
}

}  // namespace
}  // namespace redspot
