// Shared process-fleet harness for the fabric kill-matrix suites
// (fabric_chaos_test: unix sockets; net_chaos_test: TCP + network-fault
// injection).
//
// Forks real binaries with stdout+stderr captured per process, respawns
// workers the chaos plan SIGKILLs, optionally SIGKILLs and restarts the
// coordinator once its journal reaches a size threshold, and normalizes
// output down to the bit-identity contract (the summary table) so every
// scenario compares against the single-process redspot-sim reference.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace redspot::fleettest {

inline pid_t spawn(const std::vector<std::string>& args,
                   const std::string& out_path) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const int fd = ::open(out_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) _exit(127);
  ::dup2(fd, STDOUT_FILENO);
  ::dup2(fd, STDERR_FILENO);
  ::close(fd);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  _exit(127);
}

inline int wait_for(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

inline bool try_reap(pid_t pid, int* status) {
  return ::waitpid(pid, status, WNOHANG) == pid;
}

inline std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

inline std::size_t file_size(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::size_t>(st.st_size)
                                        : 0;
}

/// Canonical summary: provenance/diagnostic lines dropped, the sim CLI's
/// table title aligned with the fabric's. What remains is the
/// bit-identity contract — every number in the summary table.
inline std::string normalize(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("journal:", 0) == 0) continue;
    if (line.rfind("fabric:", 0) == 0) continue;
    if (line.rfind("interrupted:", 0) == 0) continue;
    if (line.rfind("[WARN]", 0) == 0) continue;
    const std::string sim_title = "== redspot_sim ensemble — ";
    if (line.rfind(sim_title, 0) == 0)
      line = "== ensemble — " + line.substr(sim_title.size());
    out << line << '\n';
  }
  return out.str();
}

/// Reserves a TCP port on loopback: bind :0, read the kernel's pick,
/// close. The tiny race against another process grabbing it before the
/// coordinator rebinds is acceptable in an isolated test container, and a
/// fixed port (unlike tcp:127.0.0.1:0) survives a coordinator restart —
/// the kill-and-resume scenarios depend on that.
inline std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
      port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

struct FleetRun {
  std::string output;  ///< coordinator stdout+stderr
  int coordinator_status = 0;
  int worker_respawns = 0;
  /// Workers still alive after the teardown grace and SIGKILLed; each is
  /// diagnosed on stderr (slot, time lingered, its log).
  int teardown_kills = 0;
};

/// Builds one worker's argv; `slot` distinguishes fleet members that want
/// different flags (most fleets ignore it).
using WorkerArgvFn = std::function<std::vector<std::string>(std::size_t slot)>;

/// Runs one coordinator with `num_workers` workers, respawning any worker
/// that dies by signal (chaos SIGKILLs itself; a net-fault crash would
/// exit nonzero and is respawned too via `respawn_nonzero_exits`) while
/// the coordinator lives. If `kill_coordinator_at` > 0, SIGKILLs the
/// coordinator once `journal_file` reaches that size, then restarts it
/// with the same arguments.
inline FleetRun run_fleet(const std::filesystem::path& base,
                          const std::string& tag,
                          const std::vector<std::string>& coordinator_argv,
                          const WorkerArgvFn& worker_argv, int num_workers,
                          const std::string& journal_file = "",
                          std::size_t kill_coordinator_at = 0,
                          bool respawn_nonzero_exits = false) {
  const std::string coord_out = (base / (tag + "_coord.txt")).string();

  FleetRun run;
  pid_t coord = spawn(coordinator_argv, coord_out);
  EXPECT_GT(coord, 0);

  // Give the coordinator a moment to bind before the fleet dials in; a
  // worker that races it just backs off and retries, so this is comfort,
  // not correctness.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<pid_t> workers(static_cast<std::size_t>(num_workers), -1);
  auto worker_log = [&](std::size_t slot) {
    return (base / (tag + "_worker" + std::to_string(slot) + ".txt")).string();
  };
  auto spawn_worker = [&](std::size_t slot) {
    workers[slot] = spawn(worker_argv(slot), worker_log(slot));
    EXPECT_GT(workers[slot], 0);
  };
  for (std::size_t i = 0; i < workers.size(); ++i) spawn_worker(i);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(10);
  for (;;) {
    if (std::chrono::steady_clock::now() >= deadline) {
      // Non-convergence is a hard failure; put the fleet down and let the
      // caller's status assertion report it.
      ADD_FAILURE() << tag << ": fleet did not converge; coordinator output:\n"
                    << slurp(coord_out);
      ::kill(coord, SIGKILL);
      run.coordinator_status = wait_for(coord);
      break;
    }

    int status = 0;
    if (try_reap(coord, &status)) {
      run.coordinator_status = status;
      break;
    }

    if (kill_coordinator_at > 0 && !journal_file.empty() &&
        file_size(journal_file) >= kill_coordinator_at) {
      // SIGKILL the coordinator mid-run, then restart it against the
      // surviving journal with identical arguments.
      ::kill(coord, SIGKILL);
      wait_for(coord);
      kill_coordinator_at = 0;  // once
      coord = spawn(coordinator_argv, coord_out);
      EXPECT_GT(coord, 0);
      continue;
    }

    // Respawn casualties while the run is still going.
    for (std::size_t i = 0; i < workers.size(); ++i) {
      int wstatus = 0;
      if (workers[i] > 0 && try_reap(workers[i], &wstatus)) {
        workers[i] = -1;
        const bool killed = WIFSIGNALED(wstatus);
        const bool crashed = respawn_nonzero_exits && WIFEXITED(wstatus) &&
                             WEXITSTATUS(wstatus) != 0;
        if (killed || crashed) {
          ++run.worker_respawns;
          spawn_worker(i);
        }
      }
    }
    // Poll the journal closely while its kill is pending, so the kill
    // lands mid-run rather than after the last shard.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(kill_coordinator_at > 0 ? 1 : 10));
  }

  // Fleet teardown: workers get Done and exit on their own; anything
  // still alive after a grace period is put down (not a test failure —
  // e.g. a worker mid-backoff when the run ended), but diagnosed here:
  // its log dies with the suite's directory.
  const auto teardown_start = std::chrono::steady_clock::now();
  const auto worker_deadline = teardown_start + std::chrono::seconds(30);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    while (workers[i] > 0) {
      int wstatus = 0;
      if (try_reap(workers[i], &wstatus)) {
        workers[i] = -1;
        break;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now > worker_deadline) {
        ::kill(workers[i], SIGKILL);
        wait_for(workers[i]);
        workers[i] = -1;
        ++run.teardown_kills;
        const auto lingered_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - teardown_start)
                .count();
        std::cerr << tag << ": teardown SIGKILLed worker slot " << i
                  << " after lingering " << lingered_ms
                  << " ms past the coordinator's exit; its log "
                  << worker_log(i) << ":\n"
                  << slurp(worker_log(i)) << std::endl;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  run.output = slurp(coord_out);
  return run;
}

}  // namespace redspot::fleettest
