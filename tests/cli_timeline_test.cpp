// CLI smoke test for `redspot-sim --experiments 1 --timeline`.
//
// Runs the real binary (path injected via REDSPOT_SIM_BIN) for one fixed
// policy and for Adaptive, and checks the printed event trace against the
// run summary above it: every trace line parses in the EventTraceRecorder
// format (src/core/events/trace_recorder.hpp), the trace holds one K line
// per reported config change, and its closing R line carries the printed
// cost. Also pins the exit codes of the shared sweep/ensemble option
// parsing: a flag of the other mode, a multi-zone Large-bid, or a
// malformed or out-of-range number exits 2.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/money.hpp"

namespace redspot {
namespace {

#ifndef REDSPOT_SIM_BIN
#error "REDSPOT_SIM_BIN must be defined to the redspot-sim binary path"
#endif

/// Runs redspot-sim with `args` and returns its stdout split into lines.
std::vector<std::string> run_sim(const std::string& args) {
  const std::string command =
      std::string("'") + REDSPOT_SIM_BIN + "' " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  EXPECT_EQ(::pclose(pipe), 0) << command << "\n" << out;
  std::vector<std::string> lines;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Runs redspot-sim with `args`, discarding its output; returns the exit
/// status (-1 when it did not exit normally, e.g. an abort).
int sim_exit_code(const std::string& args) {
  const std::string command = std::string("'") + REDSPOT_SIM_BIN + "' " +
                              args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// True when `line` is one of the trace_recorder.hpp line formats.
bool parses_as_trace_line(const std::string& line) {
  static const std::regex kFormats[] = {
      std::regex(R"(E \d+ [a-z-]+( z\d+)?)"),
      std::regex(R"(T \d+ z\d+ [a-z-]+->[a-z-]+)"),
      std::regex(R"(B \d+ [a-z-]+ z\d+ \d+)"),
      std::regex(R"(C \d+ z\d+ [a-z-]+ \d+)"),
      std::regex(R"(F \d+ [a-z-]+ z\d+( backoff=\d+)?)"),
      std::regex(R"(K \d+ bid=\d+ zones=\d+(,\d+)* policy=[a-z-]+)"),
      std::regex(R"(R \d+ cost=\d+ completed=[01] met=[01])"),
  };
  for (const std::regex& format : kFormats)
    if (std::regex_match(line, format)) return true;
  return false;
}

void check_timeline(const std::string& args) {
  SCOPED_TRACE(args);
  const std::vector<std::string> lines =
      run_sim("--experiments 1 --timeline " + args);
  // The summary: cost, counters, outcome — then the trace.
  ASSERT_GT(lines.size(), 4u);
  std::smatch m;
  ASSERT_TRUE(std::regex_search(lines[0], m, std::regex(R"(^cost (\S+) )")))
      << lines[0];
  const Money cost = Money::parse(m[1].str());
  ASSERT_TRUE(std::regex_search(lines[1], m,
                                std::regex(R"(config changes (\d+)$)")))
      << lines[1];
  const int config_changes = std::stoi(m[1].str());

  int k_lines = 0;
  for (std::size_t i = 3; i < lines.size(); ++i) {
    EXPECT_TRUE(parses_as_trace_line(lines[i]))
        << "line " << i + 1 << ": " << lines[i];
    if (lines[i].rfind("K ", 0) == 0) ++k_lines;
  }
  EXPECT_EQ(k_lines, config_changes);

  const std::string& last = lines.back();
  ASSERT_TRUE(std::regex_match(last, m, std::regex(R"(R \d+ cost=(\d+) .*)")))
      << last;
  EXPECT_EQ(std::stoll(m[1].str()), cost.micros());
}

TEST(CliTimeline, FixedPolicyTraceMatchesItsSummary) {
  check_timeline("--policy periodic --zones 0,1,2 --bid 0.81");
}

TEST(CliTimeline, AdaptiveTraceHasOneKLinePerConfigChange) {
  check_timeline("--policy adaptive");
}

TEST(CliArgs, FlagsOfTheOtherModeExitTwo) {
  EXPECT_EQ(sim_exit_code("--experiments 2 --replications 4"), 2);
  EXPECT_EQ(sim_exit_code("--experiments 2 --shards 2"), 2);
  EXPECT_EQ(sim_exit_code("--experiments 2 --threads 1"), 2);
  EXPECT_EQ(sim_exit_code("--experiments 2 --no-cache"), 2);
  EXPECT_EQ(sim_exit_code("--experiments 2 --journal unused-dir"), 2);
  EXPECT_EQ(sim_exit_code("ensemble --replications 2 --timeline"), 2);
  EXPECT_EQ(sim_exit_code("ensemble --replications 2 --experiments 3"), 2);
  EXPECT_EQ(sim_exit_code("--experiments 2 --bogus"), 2);
}

TEST(CliArgs, MalformedOrOutOfRangeNumbersExitTwo) {
  for (const char* bad :
       {"--notice abc", "--notice -5", "--notice 5s", "--slack x",
        "--slack -1", "--slack nan", "--slack inf", "--tc -5", "--tc 0",
        "--seed -1", "--zones 0,x", "--zones 0,", "--experiments 0",
        "--experiments 2x", "--chunk -1"}) {
    EXPECT_EQ(sim_exit_code(std::string("--experiments 2 ") + bad), 2)
        << bad;
  }
  for (const char* bad :
       {"--replications 0", "--replications -3", "--shards abc",
        "--shards 0", "--threads -2", "--threads 1e3", "--notice abc"}) {
    EXPECT_EQ(sim_exit_code(std::string("ensemble --replications 2 "
                                        "--shards 1 ") +
                            bad),
              2)
        << bad;
  }
  // Well-formed values still run.
  EXPECT_EQ(sim_exit_code("--experiments 2 --notice 300 --slack 0.5 "
                          "--tc 900 --zones 0,1"),
            0);
}

TEST(CliArgs, LargeBidIsSingleZoneInBothModes) {
  // Multi-zone Large-bid is rejected up front (Fig. 6 runs it in one zone)
  // instead of aborting inside a shard.
  EXPECT_EQ(sim_exit_code("ensemble --policy large-bid --zones 0,1 "
                          "--replications 4 --shards 2"),
            2);
  EXPECT_EQ(sim_exit_code("--experiments 2 --policy large-bid --zones 0,1"),
            2);
  EXPECT_EQ(sim_exit_code("ensemble --policy large-bid --zones 1 "
                          "--replications 2 --shards 1"),
            0);
  EXPECT_EQ(sim_exit_code("--experiments 2 --policy large-bid --zones 1"), 0);
}

}  // namespace
}  // namespace redspot
