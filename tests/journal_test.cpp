// Tests for the durability layer: atomic file replacement (common/fs),
// the checksummed run-journal framing and its torn-tail recovery
// (journal/journal), the typed record schemas (journal/run_record), the
// kReplay audit mode, and bit-identical journal resume of ensemble runs
// and exp/ sweeps.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/fs.hpp"
#include "common/parallel.hpp"
#include "core/run_result.hpp"
#include "ensemble/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "fault/run_validator.hpp"
#include "journal/journal.hpp"
#include "journal/run_record.hpp"
#include "market/regime.hpp"
#include "market/spot_market.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

namespace fs = std::filesystem;

/// Fresh path under the test temp dir (any stale file removed).
std::string tmp_path(const std::string& name) {
  const fs::path p = fs::path(testing::TempDir()) / ("redspot_" + name);
  fs::remove(p);
  return p.string();
}

std::string raw_read(const std::string& path) { return read_file(path); }

void raw_write(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

// ------------------------------------------------------------ common/fs ----

TEST(AtomicFsTest, WriteCreatesAndReplacesAtomically) {
  const std::string path = tmp_path("atomic.txt");
  atomic_write_file(path, "first contents\n");
  EXPECT_EQ(read_file(path), "first contents\n");
  atomic_write_file(path, "second");
  EXPECT_EQ(read_file(path), "second");
  // No temp litter left next to the destination.
  for (const auto& entry : fs::directory_iterator(fs::path(path).parent_path())) {
    EXPECT_EQ(entry.path().string().find(path + ".tmp"), std::string::npos);
  }
}

TEST(AtomicFsTest, WriteToBadDirectoryThrowsAndLeavesNothing) {
  const std::string path =
      (fs::path(testing::TempDir()) / "no_such_dir_xyz" / "f").string();
  EXPECT_THROW(atomic_write_file(path, "x"), std::runtime_error);
  EXPECT_FALSE(fs::exists(path));
}

TEST(AtomicFsTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_file(tmp_path("missing.txt")), std::runtime_error);
}

namespace {
volatile sig_atomic_t g_alarm_count = 0;
void count_alarm(int) { g_alarm_count = g_alarm_count + 1; }
}  // namespace

// Every fs helper must resume across EINTR. An interval timer with a
// non-SA_RESTART SIGALRM handler peppers the process with signals while
// 2 MiB crosses a pipe in each direction through write_fully/read_fully —
// a blocked write on a full pipe (and a blocked read on an empty one)
// then really returns EINTR / short counts, which unguarded I/O turns
// into spurious failures or torn transfers.
TEST(AtomicFsTest, FullyHelpersResumeAcrossInterruptingTimer) {
  int to_child[2];
  int to_parent[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(to_parent), 0);

  std::string blob(2u << 20, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i)
    blob[i] = static_cast<char>((i * 131) ^ (i >> 8));

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: slowly drain the whole blob into memory, then slowly echo
    // it back. Buffering the full blob (instead of chunk-echoing) keeps
    // the two pipes from deadlocking — chunk-echo would block on the
    // full return pipe and stop draining the input one — while the
    // usleep per chunk keeps the parent blocked in write_fully and then
    // read_fully long enough for the timer to interrupt both.
    ::close(to_child[1]);
    ::close(to_parent[0]);
    std::string copy(blob.size(), '\0');
    const std::size_t chunk = 64u << 10;
    for (std::size_t at = 0; at < copy.size(); at += chunk) {
      const std::size_t want = std::min(chunk, copy.size() - at);
      if (!read_fully(to_child[0], copy.data() + at, want, "echo read"))
        _exit(3);
      ::usleep(2000);
    }
    for (std::size_t at = 0; at < copy.size(); at += chunk) {
      const std::size_t want = std::min(chunk, copy.size() - at);
      write_fully(to_parent[1], copy.data() + at, want, "echo write");
      ::usleep(2000);
    }
    _exit(0);
  }
  ::close(to_child[0]);
  ::close(to_parent[1]);

  // Parent: non-SA_RESTART handler + 5 ms interval timer = a stream of
  // EINTRs for the duration of the transfer.
  struct sigaction sa = {};
  sa.sa_handler = count_alarm;
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART
  struct sigaction old_sa = {};
  ASSERT_EQ(::sigaction(SIGALRM, &sa, &old_sa), 0);
  itimerval timer = {};
  timer.it_interval.tv_usec = 5000;
  timer.it_value.tv_usec = 5000;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &timer, nullptr), 0);

  write_fully(to_child[1], blob.data(), blob.size(), "blob write");
  std::string echoed(blob.size(), '\0');
  ASSERT_TRUE(
      read_fully(to_parent[0], echoed.data(), echoed.size(), "blob read"));

  // Disarm before asserting so a failure report cannot be interrupted.
  itimerval off = {};
  ASSERT_EQ(::setitimer(ITIMER_REAL, &off, nullptr), 0);
  ASSERT_EQ(::sigaction(SIGALRM, &old_sa, nullptr), 0);

  EXPECT_GT(g_alarm_count, 0) << "timer never fired; test proved nothing";
  EXPECT_EQ(echoed, blob) << "transfer torn despite *_fully helpers";

  ::close(to_child[1]);
  ::close(to_parent[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// read_fully distinguishes clean EOF-before-first-byte (false) from a
// torn mid-buffer EOF (throw) — the journal's opening scan depends on it.
TEST(AtomicFsTest, ReadFullyEofSemantics) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  write_fully(fds[1], "abc", 3, "pipe");
  ::close(fds[1]);

  char buf[3];
  ASSERT_TRUE(read_fully(fds[0], buf, 3, "exact"));
  EXPECT_EQ(std::string(buf, 3), "abc");
  // Clean EOF before the first byte: false, not an error.
  EXPECT_FALSE(read_fully(fds[0], buf, 3, "eof"));
  ::close(fds[0]);

  // EOF in the middle of a requested buffer: an error, never silence.
  ASSERT_EQ(::pipe(fds), 0);
  write_fully(fds[1], "ab", 2, "pipe");
  ::close(fds[1]);
  EXPECT_THROW(read_fully(fds[0], buf, 3, "torn"), std::runtime_error);
  ::close(fds[0]);
}

// --------------------------------------------------------- journal framing --

TEST(RunJournalTest, FreshJournalIsEmptyAndDurable) {
  const std::string path = tmp_path("fresh.journal");
  RunJournal j(path);
  EXPECT_EQ(j.records().size(), 0u);
  EXPECT_EQ(j.open_stats().intact_records, 0u);
  EXPECT_FALSE(j.open_stats().recovered_tail);
  // The magic is on disk immediately.
  EXPECT_EQ(raw_read(path).substr(0, 8), std::string(RunJournal::kMagic, 8));
}

TEST(RunJournalTest, AppendsAreVisibleToTheNextOpen) {
  const std::string path = tmp_path("roundtrip.journal");
  {
    RunJournal j(path);
    j.append("alpha");
    j.append(std::string("bin\0ary\xff", 8));
    j.append("");
    EXPECT_EQ(j.appended(), 3u);
    EXPECT_EQ(j.records().size(), 0u);  // replay snapshot is at open time
  }
  RunJournal j(path);
  ASSERT_EQ(j.records().size(), 3u);
  EXPECT_EQ(j.records()[0], "alpha");
  EXPECT_EQ(j.records()[1], std::string("bin\0ary\xff", 8));
  EXPECT_EQ(j.records()[2], "");
  EXPECT_FALSE(j.open_stats().recovered_tail);
}

TEST(RunJournalTest, TornTailIsTruncatedAndAppendsResume) {
  const std::string path = tmp_path("torn.journal");
  {
    RunJournal j(path);
    j.append("record-zero");
    j.append("record-one");
    j.append("record-two");
  }
  const std::string intact = raw_read(path);
  // Tear mid-way through the last record, as a crash during write() would.
  raw_write(path, intact.substr(0, intact.size() - 5));
  {
    RunJournal j(path);
    ASSERT_EQ(j.records().size(), 2u);
    EXPECT_EQ(j.records()[1], "record-one");
    EXPECT_TRUE(j.open_stats().recovered_tail);
    EXPECT_GT(j.open_stats().dropped_bytes, 0u);
    j.append("record-two-again");  // resumes cleanly after the truncation
  }
  RunJournal j(path);
  ASSERT_EQ(j.records().size(), 3u);
  EXPECT_EQ(j.records()[2], "record-two-again");
  EXPECT_FALSE(j.open_stats().recovered_tail);
}

TEST(RunJournalTest, FlippedByteEndsTheIntactPrefix) {
  const std::string path = tmp_path("flipped.journal");
  {
    RunJournal j(path);
    j.append("record-zero");
    j.append("record-one");
    j.append("record-two");
  }
  std::string bytes = raw_read(path);
  // Corrupt one payload byte of the middle record: everything from that
  // record on is untrusted (prefix rule), even though the last record's
  // own checksum would still verify.
  const std::size_t frame0 = 8 + 8 + std::string("record-zero").size();
  const std::size_t target = frame0 + 8 + 3;  // inside record-one's payload
  bytes[target] = static_cast<char>(bytes[target] ^ 0x40);
  raw_write(path, bytes);
  RunJournal j(path);
  ASSERT_EQ(j.records().size(), 1u);
  EXPECT_EQ(j.records()[0], "record-zero");
  EXPECT_TRUE(j.open_stats().recovered_tail);
}

TEST(RunJournalTest, RefusesToAdoptAForeignFile) {
  const std::string path = tmp_path("foreign.bin");
  raw_write(path, "this is not a journal, do not truncate me");
  EXPECT_THROW(RunJournal j(path), std::runtime_error);
  // The foreign file is untouched.
  EXPECT_EQ(raw_read(path), "this is not a journal, do not truncate me");
}

TEST(RunJournalTest, ShortTornHeaderIsResetToAFreshJournal) {
  const std::string path = tmp_path("shorthdr.journal");
  raw_write(path, "RSP");  // crash while writing the magic itself
  RunJournal j(path);
  EXPECT_EQ(j.records().size(), 0u);
  j.append("ok");
  RunJournal reopened(path);
  ASSERT_EQ(reopened.records().size(), 1u);
}

// --------------------------------------------------------- record schemas --

RunResult sample_run() {
  RunResult r;
  r.total_cost = Money::dollars(12.5);
  r.spot_cost = Money::dollars(10.0);
  r.on_demand_cost = Money::dollars(2.5);
  r.completed = true;
  r.met_deadline = true;
  r.switched_to_on_demand = true;
  r.finish_time = 123456;
  r.checkpoints_committed = 7;
  r.restarts = 3;
  r.out_of_bid_terminations = 2;
  r.full_outages = 1;
  r.config_changes = 4;
  r.spot_instance_seconds = 3600;
  r.on_demand_seconds = 1800;
  r.queue_delay_total = 299;
  r.committed_progress = 86400;
  r.faults.ckpt_write_failures = 1;
  r.faults.notices_late = 2;
  r.faults.backoff_total = 60;
  return r;
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.total_cost.micros(), b.total_cost.micros());
  EXPECT_EQ(a.spot_cost.micros(), b.spot_cost.micros());
  EXPECT_EQ(a.on_demand_cost.micros(), b.on_demand_cost.micros());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.met_deadline, b.met_deadline);
  EXPECT_EQ(a.switched_to_on_demand, b.switched_to_on_demand);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.checkpoints_committed, b.checkpoints_committed);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.out_of_bid_terminations, b.out_of_bid_terminations);
  EXPECT_EQ(a.full_outages, b.full_outages);
  EXPECT_EQ(a.config_changes, b.config_changes);
  EXPECT_EQ(a.spot_instance_seconds, b.spot_instance_seconds);
  EXPECT_EQ(a.on_demand_seconds, b.on_demand_seconds);
  EXPECT_EQ(a.queue_delay_total, b.queue_delay_total);
  EXPECT_EQ(a.committed_progress, b.committed_progress);
  EXPECT_EQ(a.faults.ckpt_write_failures, b.faults.ckpt_write_failures);
  EXPECT_EQ(a.faults.notices_late, b.faults.notices_late);
  EXPECT_EQ(a.faults.backoff_total, b.faults.backoff_total);
}

TEST(RunRecordTest, EnsembleShardRoundtrip) {
  ShardRecordBuilder builder(0xABCDEF12u, 3, 10, 12, 2);
  const RunResult run = sample_run();
  for (int i = 0; i < 4; ++i) builder.add_run(run);
  const std::string& payload = builder.payload();
  EXPECT_EQ(record_type(payload), RecordType::kEnsembleShard);

  const auto rec = decode_ensemble_shard(payload);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->spec_hash, 0xABCDEF12u);
  EXPECT_EQ(rec->shard, 3u);
  EXPECT_EQ(rec->lo, 10u);
  EXPECT_EQ(rec->hi, 12u);
  EXPECT_EQ(rec->num_configs, 2u);
  ASSERT_EQ(rec->runs.size(), 4u);
  for (const RunResult& r : rec->runs) expect_same_run(run, r);
}

TEST(RunRecordTest, IncompleteBuilderRefusesToEmit) {
  ShardRecordBuilder builder(1, 0, 0, 2, 1);
  builder.add_run(sample_run());
  EXPECT_THROW(builder.payload(), CheckFailure);  // 1 of 2 runs added
  builder.add_run(sample_run());
  EXPECT_NO_THROW(builder.payload());
  EXPECT_THROW(builder.add_run(sample_run()), CheckFailure);  // overflow
}

TEST(RunRecordTest, DecodersAreTotalOnMalformedPayloads) {
  ShardRecordBuilder builder(9, 0, 0, 1, 1);
  builder.add_run(sample_run());
  const std::string payload = builder.payload();

  EXPECT_FALSE(decode_ensemble_shard("").has_value());
  EXPECT_FALSE(decode_ensemble_shard(payload.substr(0, 10)).has_value());
  EXPECT_FALSE(
      decode_ensemble_shard(payload.substr(0, payload.size() - 1)).has_value());
  EXPECT_FALSE(decode_ensemble_shard(payload + "x").has_value());
  EXPECT_FALSE(decode_sweep_chunk(payload).has_value());  // wrong type tag
  EXPECT_FALSE(decode_clean_stop(payload).has_value());
  EXPECT_FALSE(record_type("").has_value());
  EXPECT_FALSE(record_type("\x63\x00\x00\x00").has_value());  // unknown tag
}

TEST(RunRecordTest, SweepChunkAndCleanStopRoundtrip) {
  const RunResult run = sample_run();
  const std::string chunk = encode_sweep_chunk(77, 5, run);
  EXPECT_EQ(record_type(chunk), RecordType::kSweepChunk);
  const auto rec = decode_sweep_chunk(chunk);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->sweep_key, 77u);
  EXPECT_EQ(rec->chunk, 5u);
  expect_same_run(run, rec->run);

  const std::string stop =
      encode_clean_stop(CleanStopRecord{0xFEEDu, 12, 64});
  EXPECT_EQ(record_type(stop), RecordType::kCleanStop);
  const auto s = decode_clean_stop(stop);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->key, 0xFEEDu);
  EXPECT_EQ(s->units_done, 12u);
  EXPECT_EQ(s->units_total, 64u);
}

// -------------------------------------------------------- replay auditing --

TEST(AuditModeTest, CompactRecordPassesReplayAuditAndCorruptionFails) {
  const SpotMarket market(paper_traces(3), cc2_instance(),
                          QueueDelayModel(QueueDelayParams::fixed(0)));
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 2};
  const auto results = run_fixed_sweep(
      market, scenario, PolicyRunSpec{PolicyKind::kPeriodic, Money::cents(81), {0}});
  ASSERT_EQ(results.size(), 2u);

  // Roundtrip through the compact encoding (drops the per-run logs).
  const auto rec = decode_sweep_chunk(encode_sweep_chunk(1, 0, results[0]));
  ASSERT_TRUE(rec.has_value());
  const RunValidator validator(scenario.experiment(0), market.on_demand_rate());
  EXPECT_TRUE(validator.audit(rec->run, AuditMode::kReplay).empty());

  // A checksum-intact but semantically corrupt record must still be
  // rejected by the replay audit (exact cost decomposition).
  RunResult tampered = rec->run;
  tampered.total_cost = tampered.total_cost + Money::cents(1);
  EXPECT_FALSE(validator.audit(tampered, AuditMode::kReplay).empty());
}

// --------------------------------------------------- ensemble replay ------

EnsembleSpec journal_spec(
    const MarketRegime& regime = MarketRegime::classic()) {
  EnsembleSpec spec;
  spec.window = VolatilityWindow::kHigh;
  spec.slack_fraction = 0.15;
  spec.checkpoint_cost = 300;
  spec.seed = 321;
  spec.replications = 12;
  spec.num_shards = 6;
  spec.bootstrap_replicates = 40;
  spec.use_cache = false;
  spec.engine.regime = regime;
  EnsembleConfig periodic;
  periodic.policy = PolicyKind::kPeriodic;
  periodic.zones = {0};
  EnsembleConfig threshold;
  threshold.policy = PolicyKind::kThreshold;
  threshold.zones = {1};
  spec.configs = {periodic, threshold};
  spec.min_groups.push_back({"best of 2", {0, 1}});
  return spec;
}

TEST(EnsembleJournalTest, ReplayedRunIsBitIdenticalToCleanRun) {
  // Under every regime: the replay audit must judge journaled shards by
  // the regime's billing rules, or it rejects them all and recomputes.
  for (const MarketRegime& regime : regime_catalog()) {
    SCOPED_TRACE(regime.name);
    const std::string path =
        tmp_path("ensemble_replay_" + regime.name + ".journal");
    const EnsembleSpec spec = journal_spec(regime);
    const EnsembleRunner runner(spec);
    ThreadPool pool(4);

    const EnsembleResult clean = runner.run(pool);

    {
      RunJournal journal(path);
      EnsembleRunOptions options;
      options.journal = &journal;
      const EnsembleResult first = runner.run(pool, options);
      EXPECT_EQ(first.shards_replayed, 0u);
      EXPECT_EQ(first.shards_recomputed, spec.num_shards);
      EXPECT_FALSE(first.interrupted);
      EXPECT_EQ(first.table("t"), clean.table("t"));
    }
    {
      RunJournal journal(path);
      ASSERT_EQ(journal.records().size(), spec.num_shards);
      EnsembleRunOptions options;
      options.journal = &journal;
      // Replay on a different pool size: still bit-identical.
      ThreadPool one(1);
      const EnsembleResult replayed = runner.run(one, options);
      EXPECT_EQ(replayed.shards_replayed, spec.num_shards);
      EXPECT_EQ(replayed.shards_recomputed, 0u);
      EXPECT_EQ(replayed.table("t"), clean.table("t"));
      ASSERT_EQ(replayed.configs.size(), clean.configs.size());
      for (std::size_t c = 0; c < clean.configs.size(); ++c) {
        // Bitwise, not approximate: the resume contract.
        EXPECT_EQ(replayed.configs[c].cost().mean(),
                  clean.configs[c].cost().mean());
        EXPECT_EQ(replayed.configs[c].cost().variance(),
                  clean.configs[c].cost().variance());
        EXPECT_EQ(replayed.configs[c].cost().mean_ci(),
                  clean.configs[c].cost().mean_ci());
        EXPECT_EQ(replayed.configs[c].restarts().mean(),
                  clean.configs[c].restarts().mean());
      }
      EXPECT_EQ(replayed.groups[0].cost().mean(),
                clean.groups[0].cost().mean());
    }
  }
}

TEST(EnsembleJournalTest, PartialJournalResumesTheMissingShardsOnly) {
  const std::string full_path = tmp_path("ensemble_full.journal");
  const std::string partial_path = tmp_path("ensemble_partial.journal");
  const EnsembleSpec spec = journal_spec();
  const EnsembleRunner runner(spec);
  ThreadPool pool(4);

  const EnsembleResult clean = runner.run(pool);
  {
    RunJournal journal(full_path);
    EnsembleRunOptions options;
    options.journal = &journal;
    runner.run(pool, options);
  }
  // A journal holding only some shards — as a kill mid-run leaves behind.
  {
    RunJournal full(full_path);
    RunJournal partial(partial_path);
    ASSERT_EQ(full.records().size(), spec.num_shards);
    for (std::size_t i = 0; i < 3; ++i) partial.append(full.records()[i]);
  }
  RunJournal journal(partial_path);
  EnsembleRunOptions options;
  options.journal = &journal;
  const EnsembleResult resumed = runner.run(pool, options);
  EXPECT_EQ(resumed.shards_replayed, 3u);
  EXPECT_EQ(resumed.shards_recomputed, spec.num_shards - 3u);
  EXPECT_EQ(resumed.table("t"), clean.table("t"));
  // The resumed run journaled what it recomputed: the next open replays all.
  RunJournal after(partial_path);
  EXPECT_EQ(after.records().size(), spec.num_shards);
}

TEST(EnsembleJournalTest, ForeignSpecRecordsAreIgnored) {
  const std::string path = tmp_path("ensemble_foreign.journal");
  const EnsembleSpec spec_a = journal_spec();
  EnsembleSpec spec_b = journal_spec();
  spec_b.seed = 999;  // different spec hash, same shape
  ThreadPool pool(4);
  {
    RunJournal journal(path);
    EnsembleRunOptions options;
    options.journal = &journal;
    EnsembleRunner(spec_a).run(pool, options);
  }
  RunJournal journal(path);
  EnsembleRunOptions options;
  options.journal = &journal;
  const EnsembleResult b = EnsembleRunner(spec_b).run(pool, options);
  EXPECT_EQ(b.shards_replayed, 0u);  // nothing in the journal matches B
  EXPECT_EQ(b.shards_recomputed, spec_b.num_shards);
  EXPECT_EQ(b.table("t"), EnsembleRunner(spec_b).run(pool).table("t"));
}

TEST(EnsembleJournalTest, ChecksumIntactButCorruptRecordIsRecomputed) {
  const std::string path = tmp_path("ensemble_tampered.journal");
  const EnsembleSpec spec = journal_spec();
  const EnsembleRunner runner(spec);
  ThreadPool pool(4);
  const EnsembleResult clean = runner.run(pool);

  // Forge a well-framed record for shard 0 whose runs violate the billing
  // invariants (total != spot + on-demand): CRC passes, the audit must not.
  {
    RunJournal journal(path);
    const auto [lo, hi] = shard_bounds(spec.replications, spec.num_shards, 0);
    ShardRecordBuilder forged(
        spec.spec_hash(), 0, lo, hi,
        static_cast<std::uint32_t>(spec.configs.size()));
    RunResult bogus = sample_run();
    bogus.total_cost = Money::dollars(999.0);
    for (std::size_t i = 0; i < (hi - lo) * spec.configs.size(); ++i)
      forged.add_run(bogus);
    journal.append(forged.payload());
  }
  RunJournal journal(path);
  ASSERT_EQ(journal.records().size(), 1u);
  EnsembleRunOptions options;
  options.journal = &journal;
  const EnsembleResult result = runner.run(pool, options);
  EXPECT_EQ(result.shards_replayed, 0u);  // forged record failed the audit
  EXPECT_EQ(result.shards_recomputed, spec.num_shards);
  EXPECT_EQ(result.table("t"), clean.table("t"));
}

TEST(EnsembleJournalTest, PreSetStopFlagYieldsInterruptedEmptyResult) {
  const EnsembleSpec spec = journal_spec();
  ThreadPool pool(2);
  std::atomic<bool> stop{true};
  EnsembleRunOptions options;
  options.stop = &stop;
  const EnsembleResult r = EnsembleRunner(spec).run(pool, options);
  EXPECT_TRUE(r.interrupted);
  EXPECT_EQ(r.shards_replayed + r.shards_recomputed, 0u);
  EXPECT_EQ(r.configs[0].count(), 0u);
}

// ------------------------------------------------------- sweep replay ------

/// One journaled sweep of each kind: fixed (batched lanes), adaptive and
/// large-bid (scalar runs).
using Sweep = std::vector<RunResult> (*)(const SpotMarket&, const Scenario&,
                                         SweepDurability*);
std::vector<RunResult> fixed_sweep(const SpotMarket& market,
                                   const Scenario& scenario,
                                   SweepDurability* durability) {
  return run_fixed_sweep(market, scenario,
                         {PolicyKind::kPeriodic, Money::cents(81), {0}}, {},
                         durability);
}
std::vector<RunResult> adaptive_sweep(const SpotMarket& market,
                                      const Scenario& scenario,
                                      SweepDurability* durability) {
  return run_adaptive_sweep(market, scenario, {}, durability);
}
std::vector<RunResult> large_bid_sweep(const SpotMarket& market,
                                       const Scenario& scenario,
                                       SweepDurability* durability) {
  return run_large_bid_sweep(market, scenario, Money::cents(81), 1, {},
                             durability);
}
const Sweep kSweepKinds[] = {fixed_sweep, adaptive_sweep, large_bid_sweep};

TEST(SweepJournalTest, SecondSweepReplaysEveryChunkBitIdentically) {
  const SpotMarket market(paper_traces(3), cc2_instance(),
                          QueueDelayModel(QueueDelayParams::fixed(0)));
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 4};
  for (const Sweep sweep : kSweepKinds) {
    const std::string path = tmp_path("sweep_replay.journal");
    std::vector<RunResult> first;
    {
      RunJournal journal(path);
      SweepDurability durability{&journal};
      first = sweep(market, scenario, &durability);
      EXPECT_EQ(durability.chunks_replayed, 0u);
      EXPECT_EQ(durability.chunks_recomputed, 4u);
    }
    RunJournal journal(path);
    ASSERT_EQ(journal.records().size(), 4u);
    SweepDurability durability{&journal};
    const std::vector<RunResult> replayed =
        sweep(market, scenario, &durability);
    EXPECT_EQ(durability.chunks_replayed, 4u);
    EXPECT_EQ(durability.chunks_recomputed, 0u);
    ASSERT_EQ(replayed.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
      expect_same_run(replayed[i], first[i]);
  }
}

TEST(SweepJournalTest, DifferentConfigurationsGetDistinctKeys) {
  const std::string path = tmp_path("sweep_keys.journal");
  const SpotMarket market(paper_traces(3), cc2_instance(),
                          QueueDelayModel(QueueDelayParams::fixed(0)));
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 2};
  const PolicyRunSpec periodic{PolicyKind::kPeriodic, Money::cents(81), {0}};
  const PolicyRunSpec markov{PolicyKind::kMarkovDaly, Money::cents(81), {0}};
  {
    RunJournal journal(path);
    SweepDurability durability;
    durability.journal = &journal;
    run_fixed_sweep(market, scenario, periodic, {}, &durability);
  }
  // The markov sweep must not replay the periodic sweep's chunks.
  RunJournal journal(path);
  SweepDurability durability;
  durability.journal = &journal;
  run_fixed_sweep(market, scenario, markov, {}, &durability);
  EXPECT_EQ(durability.chunks_replayed, 0u);
  EXPECT_EQ(durability.chunks_recomputed, 2u);

  // And the base key separates scenarios and engine options too.
  const Scenario other{VolatilityWindow::kHigh, 0.15, 300, 4};
  EngineOptions notice;
  notice.regime.rebalance_notice = 120;
  EXPECT_NE(sweep_base_key(market, scenario, {}),
            sweep_base_key(market, other, {}));
  EXPECT_NE(sweep_base_key(market, scenario, {}),
            sweep_base_key(market, scenario, notice));
}


// Journal keys are a compatibility contract: a change to what is hashed,
// or in which order, orphans every journal already on disk. These
// constants pin the base key and the key of each sweep kind, as read back
// from the records the sweep wrote; change them only together with a
// deliberate key change.
TEST(SweepJournalTest, JournalKeysArePinned) {
  const SpotMarket market(paper_traces(3), cc2_instance(),
                          QueueDelayModel(QueueDelayParams::fixed(0)));
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 2};
  EXPECT_EQ(sweep_base_key(market, scenario, {}), 0x2c16c01b27fd788dull);

  const std::uint64_t pinned[] = {0xac22c64c08b36b33ull,   // fixed
                                  0x98abbc3f12bb2964ull,   // adaptive
                                  0xae9f76e75c87cce6ull};  // large-bid
  for (std::size_t kind = 0; kind < std::size(kSweepKinds); ++kind) {
    const std::string path = tmp_path("sweep_pinned.journal");
    {
      RunJournal journal(path);
      SweepDurability durability{&journal};
      kSweepKinds[kind](market, scenario, &durability);
    }
    RunJournal journal(path);
    std::vector<std::uint64_t> keys;
    for (const std::string& payload : journal.records()) {
      const std::optional<SweepChunkRecord> rec = decode_sweep_chunk(payload);
      ASSERT_TRUE(rec.has_value());
      keys.push_back(rec->sweep_key);
    }
    EXPECT_EQ(keys, std::vector<std::uint64_t>(2, pinned[kind])) << kind;
  }
}

TEST(SweepJournalTest, JournalOfAnotherMarketReplaysNothing) {
  const std::string path = tmp_path("sweep_market.journal");
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 2};
  const PolicyRunSpec spec{PolicyKind::kPeriodic, Money::cents(81), {0}};
  {
    const SpotMarket market(paper_traces(3), cc2_instance(),
                            QueueDelayModel(QueueDelayParams::fixed(0)));
    RunJournal journal(path);
    SweepDurability durability{&journal};
    run_fixed_sweep(market, scenario, spec, {}, &durability);
    EXPECT_EQ(durability.chunks_recomputed, 2u);
  }
  // Same instance, delay model, scenario and configuration; only the
  // price samples differ, so the market fingerprint alone must miss.
  const SpotMarket other(paper_traces(4), cc2_instance(),
                         QueueDelayModel(QueueDelayParams::fixed(0)));
  RunJournal journal(path);
  SweepDurability durability{&journal};
  run_fixed_sweep(other, scenario, spec, {}, &durability);
  EXPECT_EQ(durability.chunks_replayed, 0u);
  EXPECT_EQ(durability.chunks_recomputed, 2u);
}

TEST(SweepJournalTest, NullJournalRecomputesEveryChunk) {
  const SpotMarket market(paper_traces(3), cc2_instance(),
                          QueueDelayModel(QueueDelayParams::fixed(0)));
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 3};
  const PolicyRunSpec spec{PolicyKind::kMarkovDaly, Money::cents(81), {0, 1}};
  SweepDurability durability;
  durability.chunks_replayed = 7;  // stale counters are overwritten
  const std::vector<RunResult> with =
      run_fixed_sweep(market, scenario, spec, {}, &durability);
  EXPECT_EQ(durability.chunks_replayed, 0u);
  EXPECT_EQ(durability.chunks_recomputed, 3u);
  const std::vector<RunResult> without =
      run_fixed_sweep(market, scenario, spec);
  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i)
    expect_same_run(with[i], without[i]);
}

}  // namespace
}  // namespace redspot
