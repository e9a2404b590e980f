// Tests for the Monte-Carlo ensemble subsystem: counter-based seeding,
// streaming estimators vs. their batch counterparts (property tests),
// trace trimming and experiment spans, thread-count invariance of
// EnsembleRunner, the result cache, and min-group semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <set>
#include <string>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/time.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "ensemble/cache.hpp"
#include "ensemble/runner.hpp"
#include "ensemble/seeder.hpp"
#include "ensemble/shard_exec.hpp"
#include "ensemble/streaming.hpp"
#include "exp/scenario.hpp"
#include "fault/audit_observer.hpp"
#include "journal/run_record.hpp"
#include "market/instance_type.hpp"
#include "market/queue_delay.hpp"
#include "market/spot_market.hpp"
#include "stats/descriptive.hpp"
#include "stats/streaming.hpp"
#include "trace/synthetic.hpp"
#include "trace/zone_traces.hpp"

namespace redspot {
namespace {

// ---------------------------------------------------------------- seeding --

TEST(ReplicationSeederTest, PureFunctionOfInputs) {
  const ReplicationSeeder a(42);
  const ReplicationSeeder b(42);
  for (std::uint64_t r : {0ULL, 1ULL, 999ULL, 1'000'000ULL}) {
    for (SeedDomain d :
         {SeedDomain::kTrace, SeedDomain::kQueueDelay, SeedDomain::kBootstrap}) {
      EXPECT_EQ(a.seed(r, d), b.seed(r, d));
    }
  }
}

TEST(ReplicationSeederTest, DistinctAcrossReplicationsDomainsAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL}) {
    const ReplicationSeeder s(base);
    for (std::uint64_t r = 0; r < 200; ++r) {
      for (SeedDomain d : {SeedDomain::kTrace, SeedDomain::kQueueDelay,
                           SeedDomain::kBootstrap}) {
        seen.insert(s.seed(r, d));
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u * 200u * 3u);  // no collisions in this range
}

// --------------------------------------------- streaming vs. batch (props) --

std::vector<double> lognormal_sample(std::size_t n, std::uint64_t seed) {
  Rng rng(seed, /*stream=*/17);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.lognormal(0.0, 0.5);
  return xs;
}

TEST(StreamingSummaryTest, ExactForFewerThanFiveSamples) {
  StreamingSummary s;
  const double xs[] = {3.0, 1.0, 2.0};
  for (std::uint64_t i = 0; i < 3; ++i) s.add(i, xs[i]);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(StreamingSummaryTest, SinglePassMatchesBatchDescriptive) {
  const std::vector<double> xs = lognormal_sample(4000, 99);
  StreamingSummary s({.bootstrap_replicates = 100, .ci_level = 0.95,
                      .bootstrap_seed = 7});
  for (std::size_t i = 0; i < xs.size(); ++i)
    s.add(static_cast<std::uint64_t>(i), xs[i]);

  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean(xs), 1e-9 * std::abs(mean(xs)));
  EXPECT_NEAR(s.variance(), variance(xs), 1e-9 * variance(xs));
  EXPECT_DOUBLE_EQ(s.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(s.max(), max_of(xs));
  // P² is approximate; for 4000 lognormal(0, 0.5) samples the estimate
  // stays within a few percent of the exact sample quantile.
  const double spread = quantile(xs, 0.75) - quantile(xs, 0.25);
  EXPECT_NEAR(s.q1(), quantile(xs, 0.25), 0.10 * spread);
  EXPECT_NEAR(s.median(), quantile(xs, 0.5), 0.10 * spread);
  EXPECT_NEAR(s.q3(), quantile(xs, 0.75), 0.10 * spread);

  const auto [lo, hi] = s.mean_ci();
  EXPECT_LT(lo, hi);
  EXPECT_LT(lo, s.mean());
  EXPECT_GT(hi, s.mean());
}

TEST(StreamingSummaryTest, MergedShardsMatchBatchOverUnion) {
  const std::vector<double> xs = lognormal_sample(3000, 1234);
  const StreamingSummaryOptions options{.bootstrap_replicates = 80,
                                        .ci_level = 0.95,
                                        .bootstrap_seed = 11};
  // Uneven split into 7 shards, each accumulated in index order, merged in
  // shard order — exactly the runner's reduction shape.
  const std::size_t cuts[] = {0, 100, 101, 900, 901, 1500, 2999, 3000};
  StreamingSummary merged(options);
  for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
    StreamingSummary shard(options);
    for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i)
      shard.add(static_cast<std::uint64_t>(i), xs[i]);
    merged.merge(shard);
  }

  EXPECT_EQ(merged.count(), xs.size());
  EXPECT_NEAR(merged.mean(), mean(xs), 1e-9 * std::abs(mean(xs)));
  EXPECT_NEAR(merged.variance(), variance(xs), 1e-9 * variance(xs));
  EXPECT_DOUBLE_EQ(merged.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(merged.max(), max_of(xs));
  const double spread = quantile(xs, 0.75) - quantile(xs, 0.25);
  EXPECT_NEAR(merged.q1(), quantile(xs, 0.25), 0.15 * spread);
  EXPECT_NEAR(merged.median(), quantile(xs, 0.5), 0.15 * spread);
  EXPECT_NEAR(merged.q3(), quantile(xs, 0.75), 0.15 * spread);
}

TEST(StreamingSummaryTest, MergeIsDeterministic) {
  const std::vector<double> xs = lognormal_sample(500, 5);
  const StreamingSummaryOptions options{.bootstrap_replicates = 40,
                                        .ci_level = 0.95,
                                        .bootstrap_seed = 3};
  auto build = [&] {
    StreamingSummary total(options);
    for (std::size_t lo : {std::size_t{0}, std::size_t{250}}) {
      StreamingSummary shard(options);
      for (std::size_t i = lo; i < lo + 250; ++i)
        shard.add(static_cast<std::uint64_t>(i), xs[i]);
      total.merge(shard);
    }
    return total;
  };
  const StreamingSummary a = build();
  const StreamingSummary b = build();
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.q1(), b.q1());
  EXPECT_EQ(a.median(), b.median());
  EXPECT_EQ(a.q3(), b.q3());
  EXPECT_EQ(a.mean_ci(), b.mean_ci());
}

TEST(StreamingSummaryTest, MergeRejectsMismatchedEstimators) {
  StreamingSummary a({.bootstrap_replicates = 10});
  StreamingSummary b({.bootstrap_replicates = 20});
  EXPECT_THROW(a.merge(b), CheckFailure);
}

TEST(P2QuantileTest, TracksBatchQuantileOnSkewedData) {
  const std::vector<double> xs = lognormal_sample(5000, 77);
  for (double q : {0.25, 0.5, 0.75, 0.9}) {
    P2Quantile est(q);
    for (double x : xs) est.add(x);
    const double exact = quantile(xs, q);
    const double spread = quantile(xs, 0.9) - quantile(xs, 0.1);
    EXPECT_NEAR(est.value(), exact, 0.05 * spread) << "q=" << q;
  }
}

TEST(PoissonBootstrapTest, WeightsArePureFunctionsOfSeedIndexReplicate) {
  const std::vector<double> xs = lognormal_sample(400, 21);
  auto run = [&](bool reversed) {
    PoissonBootstrap boot(50, /*seed=*/9);
    if (reversed) {
      for (std::size_t i = xs.size(); i-- > 0;)
        boot.add(static_cast<std::uint64_t>(i), xs[i]);
    } else {
      for (std::size_t i = 0; i < xs.size(); ++i)
        boot.add(static_cast<std::uint64_t>(i), xs[i]);
    }
    return boot.mean_ci(0.95, mean(xs));
  };
  const auto forward = run(false);
  const auto backward = run(true);
  // Same weights either way; only the floating-point summation order
  // differs, so the CIs agree to rounding.
  EXPECT_NEAR(forward.first, backward.first, 1e-9);
  EXPECT_NEAR(forward.second, backward.second, 1e-9);
  EXPECT_EQ(run(false), run(false));  // identical order → identical bits
}

TEST(PoissonBootstrapTest, CiBracketsTheMeanAndNarrowsWithN) {
  auto half_width = [](std::size_t n) {
    const std::vector<double> xs = lognormal_sample(n, 31);
    PoissonBootstrap boot(200, 4);
    for (std::size_t i = 0; i < xs.size(); ++i)
      boot.add(static_cast<std::uint64_t>(i), xs[i]);
    const auto [lo, hi] = boot.mean_ci(0.95, mean(xs));
    EXPECT_LT(lo, mean(xs));
    EXPECT_GT(hi, mean(xs));
    return hi - lo;
  };
  EXPECT_GT(half_width(100), half_width(6400));
}

TEST(WilsonIntervalTest, KnownValues) {
  EXPECT_EQ(wilson_interval(0, 0, 0.95), (std::pair<double, double>{0, 0}));
  const auto none = wilson_interval(0, 50, 0.95);
  EXPECT_NEAR(none.first, 0.0, 1e-12);
  EXPECT_GT(none.second, 0.0);   // zero observed misses != zero risk
  EXPECT_LT(none.second, 0.10);
  const auto all = wilson_interval(50, 50, 0.95);
  EXPECT_NEAR(all.second, 1.0, 1e-12);
  EXPECT_LT(all.first, 1.0);
  const auto half = wilson_interval(25, 50, 0.95);
  EXPECT_LT(half.first, 0.5);
  EXPECT_GT(half.second, 0.5);
}

TEST(ProbitTest, MatchesTabulatedNormalQuantiles) {
  EXPECT_NEAR(probit(0.5), 0.0, 1e-9);
  EXPECT_NEAR(probit(0.975), 1.9599639845, 1e-6);
  EXPECT_NEAR(probit(0.025), -1.9599639845, 1e-6);
  EXPECT_NEAR(probit(0.99), 2.3263478740, 1e-6);
}

// ---------------------------------------------------------- trace trimming --

TEST(TrimmedSpecTest, PrefixBitIdenticalToFullTrace) {
  const SyntheticTraceSpec full_spec = paper_trace_spec(7);
  const SimTime keep = window_end(VolatilityWindow::kHigh);
  const ZoneTraceSet full = generate_traces(full_spec);
  const ZoneTraceSet trimmed = generate_traces(trimmed_spec(full_spec, keep));

  ASSERT_EQ(trimmed.num_zones(), full.num_zones());
  ASSERT_GE(trimmed.end(), keep);
  ASSERT_LT(trimmed.end(), full.end());
  for (std::size_t z = 0; z < full.num_zones(); ++z) {
    for (SimTime t = 0; t < keep; t += 6 * kHour) {
      ASSERT_TRUE(full.price(z, t) == trimmed.price(z, t))
          << "zone " << z << " t=" << t;
    }
  }
}

TEST(TrimmedSpecTest, RejectsSpanBeyondSpec) {
  const SyntheticTraceSpec spec = paper_trace_spec(7);
  EXPECT_THROW(trimmed_spec(spec, 500 * kDay), CheckFailure);  // span ~425d
  EXPECT_THROW(trimmed_spec(spec, 0), CheckFailure);
}

// --------------------------------------------------------- EnsembleRunner --

EnsembleSpec small_spec() {
  EnsembleSpec spec;
  spec.window = VolatilityWindow::kHigh;
  spec.slack_fraction = 0.15;
  spec.checkpoint_cost = 300;
  spec.seed = 123;
  spec.replications = 24;
  spec.num_shards = 8;
  spec.bootstrap_replicates = 50;
  spec.use_cache = false;
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

TEST(EnsembleRunnerTest, SummaryIsBitIdenticalAcrossThreadCounts) {
  const EnsembleRunner runner(small_spec());
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool hw(0);
  const EnsembleResult r1 = runner.run(one);
  const EnsembleResult r2 = runner.run(two);
  const EnsembleResult rh = runner.run(hw);

  const std::string t1 = r1.table("invariance");
  EXPECT_EQ(t1, r2.table("invariance"));
  EXPECT_EQ(t1, rh.table("invariance"));

  ASSERT_EQ(r1.configs.size(), r2.configs.size());
  for (std::size_t c = 0; c < r1.configs.size(); ++c) {
    const StreamingSummary& a = r1.configs[c].cost();
    const StreamingSummary& b = r2.configs[c].cost();
    // Bitwise, not approximate: the determinism contract.
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.q1(), b.q1());
    EXPECT_EQ(a.median(), b.median());
    EXPECT_EQ(a.q3(), b.q3());
    EXPECT_EQ(a.mean_ci(), b.mean_ci());
    EXPECT_EQ(r1.configs[c].deadline_misses(), r2.configs[c].deadline_misses());
    EXPECT_EQ(r1.configs[c].restarts().mean(), r2.configs[c].restarts().mean());
  }
}

TEST(EnsembleRunnerTest, FoldsEveryReplicationAndMeetsDeadlines) {
  const EnsembleSpec spec = small_spec();
  const EnsembleResult r = EnsembleRunner(spec).run();
  ASSERT_EQ(r.configs.size(), 2u);
  ASSERT_EQ(r.groups.size(), 1u);
  for (const ConfigSummary& c : r.configs) {
    EXPECT_EQ(c.count(), spec.replications);
    // The engine's on-demand fallback guarantees the deadline in every
    // fault-free replication.
    EXPECT_EQ(c.deadline_misses(), 0u);
    EXPECT_EQ(c.incomplete(), 0u);
    EXPECT_GT(c.cost().mean(), 0.0);
  }
}

TEST(EnsembleRunnerTest, MinGroupIsPerReplicationMinimum) {
  const EnsembleResult r = EnsembleRunner(small_spec()).run();
  const ConfigSummary& best = r.groups[0];
  EXPECT_EQ(best.count(), r.configs[0].count());
  for (const ConfigSummary& member : r.configs) {
    EXPECT_LE(best.cost().mean(), member.cost().mean() + 1e-9);
    EXPECT_LE(best.cost().min(), member.cost().min() + 1e-9);
  }
}

TEST(EnsembleRunnerTest, CacheHitReturnsIdenticalResult) {
  EnsembleSpec spec = small_spec();
  spec.use_cache = true;
  spec.seed = 777;
  spec.replications = 8;
  spec.num_shards = 4;
  EnsembleCache::global().clear();

  const EnsembleRunner runner(spec);
  const EnsembleResult first = runner.run();
  EXPECT_FALSE(first.from_cache);
  const EnsembleResult second = runner.run();
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(first.table("t"), second.table("t"));

  const EnsembleCache::Stats stats = EnsembleCache::global().stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
  EXPECT_GE(stats.entries, 1u);
  EnsembleCache::global().clear();
  EXPECT_EQ(EnsembleCache::global().stats().entries, 0u);
}

TEST(EnsembleSpecTest, HashCoversResultAffectingFieldsOnly) {
  const EnsembleSpec base = small_spec();
  EXPECT_EQ(base.spec_hash(), small_spec().spec_hash());

  EnsembleSpec s = small_spec();
  s.use_cache = !s.use_cache;
  EXPECT_EQ(base.spec_hash(), s.spec_hash());  // not result-affecting

  s = small_spec();
  s.seed = 124;
  EXPECT_NE(base.spec_hash(), s.spec_hash());
  s = small_spec();
  s.replications = 25;
  EXPECT_NE(base.spec_hash(), s.spec_hash());
  s = small_spec();
  s.configs[0].bid = Money::cents(101);
  EXPECT_NE(base.spec_hash(), s.spec_hash());
  s = small_spec();
  s.min_groups[0].members = {0};
  EXPECT_NE(base.spec_hash(), s.spec_hash());
}

TEST(EnsembleSpecTest, ValidateRejectsMalformedSpecs) {
  EnsembleSpec s = small_spec();
  s.configs.clear();
  EXPECT_THROW(s.validate(), CheckFailure);

  s = small_spec();
  s.replications = 0;
  EXPECT_THROW(s.validate(), CheckFailure);

  s = small_spec();
  s.min_groups[0].members = {0, 5};  // out of range
  EXPECT_THROW(s.validate(), CheckFailure);

  s = small_spec();
  s.configs[0].kind = EnsembleConfig::Kind::kLargeBid;
  s.configs[0].zones = {0, 1};  // Large-bid is single-zone
  EXPECT_THROW(s.validate(), CheckFailure);
  s.configs[0].zones = {1};
  EXPECT_NO_THROW(s.validate());
}

TEST(EnsembleConfigTest, LabelsAreDerivedOrExplicit) {
  EnsembleConfig c;
  c.policy = PolicyKind::kPeriodic;
  c.zones = {0, 1, 2};
  EXPECT_FALSE(c.display_label().empty());
  c.label = "custom";
  EXPECT_EQ(c.display_label(), "custom");
}

// ------------------------------------------------------------- LRU cache --

/// A small same-sized result for byte-accounting tests.
EnsembleResult cache_filler() {
  EnsembleResult r;
  r.configs.emplace_back("filler",
                         StreamingSummaryOptions{50, 0.95, 1});
  return r;
}

/// Restores the global cache to its default state on scope exit so these
/// tests cannot leak a tiny capacity into the other cache tests.
struct CacheGuard {
  ~CacheGuard() {
    EnsembleCache::global().set_capacity_bytes(
        EnsembleCache::kDefaultCapacityBytes);
    EnsembleCache::global().clear();
  }
};

TEST(EnsembleCacheTest, ByteAccountingTracksStoresAndClear) {
  CacheGuard guard;
  EnsembleCache& cache = EnsembleCache::global();
  cache.clear();
  cache.store(1, cache_filler());
  const std::size_t per_entry = cache.stats().bytes;
  EXPECT_GT(per_entry, 0u);
  cache.store(2, cache_filler());
  cache.store(3, cache_filler());
  EXPECT_EQ(cache.stats().bytes, 3 * per_entry);
  EXPECT_EQ(cache.stats().entries, 3u);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(EnsembleCacheTest, EvictsLeastRecentlyUsedWhenOverCapacity) {
  CacheGuard guard;
  EnsembleCache& cache = EnsembleCache::global();
  cache.clear();
  cache.store(1, cache_filler());
  const std::size_t per_entry = cache.stats().bytes;

  // Room for exactly two entries: storing a third evicts the oldest.
  cache.set_capacity_bytes(2 * per_entry);
  cache.store(2, cache_filler());
  cache.store(3, cache_filler());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(1), nullptr);  // the LRU victim
  EXPECT_NE(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);

  // A hit refreshes recency: touch 2, store 4 — now 3 is the victim.
  ASSERT_NE(cache.lookup(2), nullptr);
  cache.store(4, cache_filler());
  EXPECT_EQ(cache.lookup(3), nullptr);
  EXPECT_NE(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(4), nullptr);
}

TEST(EnsembleCacheTest, ShrinkingCapacityEvictsImmediately) {
  CacheGuard guard;
  EnsembleCache& cache = EnsembleCache::global();
  cache.clear();
  cache.store(1, cache_filler());
  cache.store(2, cache_filler());
  EXPECT_EQ(cache.stats().entries, 2u);
  // Capacity zero disables retention: everything evicts, stores included.
  cache.set_capacity_bytes(0);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  cache.store(3, cache_filler());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.lookup(3), nullptr);
}

TEST(EnsembleCacheTest, EvictedEntrySharedPtrStaysValid) {
  CacheGuard guard;
  EnsembleCache& cache = EnsembleCache::global();
  cache.clear();
  cache.store(1, cache_filler());
  const auto held = cache.lookup(1);
  ASSERT_NE(held, nullptr);
  cache.set_capacity_bytes(0);  // evict everything
  EXPECT_EQ(cache.lookup(1), nullptr);
  // The caller's shared ownership outlives the eviction.
  EXPECT_EQ(held->configs[0].label(), "filler");
}

// ---------------------------------------------------------- ShardExecutor --

/// Adaptive, the four fixed policies at $0.81 on zones 0,1,2 (the
/// redundancy min-group) and Large-bid: every lane kind of a replication.
/// Shard 1 of 2 covers replications [n, 2n), so its lo is not 0.
EnsembleSpec mixed_lane_spec(std::size_t n) {
  EnsembleSpec spec;
  spec.window = VolatilityWindow::kHigh;
  spec.slack_fraction = 0.15;
  spec.checkpoint_cost = 300;
  spec.seed = 2024;
  spec.replications = 2 * n;
  spec.num_shards = 2;
  spec.bootstrap_replicates = 50;
  spec.use_cache = false;
  EnsembleConfig adaptive;
  adaptive.kind = EnsembleConfig::Kind::kAdaptive;
  spec.configs.push_back(adaptive);
  MinGroup redundancy{"redundancy", {}};
  for (PolicyKind p : {PolicyKind::kPeriodic, PolicyKind::kMarkovDaly,
                       PolicyKind::kRisingEdge, PolicyKind::kThreshold}) {
    EnsembleConfig c;
    c.policy = p;
    c.bid = Money::cents(81);
    c.zones = {0, 1, 2};
    redundancy.members.push_back(spec.configs.size());
    spec.configs.push_back(c);
  }
  EnsembleConfig large;
  large.kind = EnsembleConfig::Kind::kLargeBid;
  large.threshold = Money::cents(81);
  large.zones = {0};
  spec.configs.push_back(large);
  spec.min_groups.push_back(redundancy);
  spec.validate();
  return spec;
}

TEST(ShardExecutorTest, PooledComputeIsByteIdenticalToSerial) {
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool four(4);
  for (const std::size_t n : {1u, 3u, 4u}) {
    const EnsembleSpec spec = mixed_lane_spec(n);
    const ShardExecutor exec(spec);
    ASSERT_EQ(exec.bounds(1), std::make_pair(n, 2 * n));
    const std::string serial = exec.compute(1);
    const auto rec = decode_ensemble_shard(serial);
    ASSERT_TRUE(rec.has_value() && exec.matches(*rec) && exec.audit(*rec));
    for (ThreadPool* pool : {&one, &two, &four}) {
      EXPECT_EQ(exec.compute(1, {}, pool), serial)
          << n << " replications on " << pool->size() << " threads";
    }
  }
}

TEST(ShardExecutorTest, ProgressCountsCompletionsOneCallAtATime) {
  const EnsembleSpec spec = mixed_lane_spec(4);
  const ShardExecutor exec(spec);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    std::atomic<bool> in_callback{false};
    std::atomic<int> overlaps{0};
    std::vector<std::size_t> counts;
    exec.compute(
        1,
        [&](std::size_t done) {
          if (in_callback.exchange(true)) ++overlaps;
          counts.push_back(done);
          // Widen the window a concurrent call would land in.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          in_callback.store(false);
        },
        pool);
    EXPECT_EQ(overlaps.load(), 0);
    EXPECT_EQ(counts, (std::vector<std::size_t>{1, 2, 3, 4}))
        << (pool == nullptr ? "serial" : "pooled");
  }
}

/// Dynamic type and message of what `fn` throws.
template <typename F>
std::pair<std::string, std::string> thrown_by(F&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  }
  ADD_FAILURE() << "nothing was thrown";
  return {};
}

TEST(ShardExecutorTest, PooledFailureRethrowsTheOriginalException) {
  // A duplicate zone passes spec validation but fails the scalar engine's
  // config check (a CheckFailure) in every replication; a lone fixed
  // policy runs on the scalar engine.
  EnsembleSpec spec = mixed_lane_spec(3);
  EnsembleConfig broken;
  broken.policy = PolicyKind::kPeriodic;
  broken.zones = {1, 1};
  spec.configs = {spec.configs.front(), broken};
  spec.min_groups.clear();
  spec.validate();
  const ShardExecutor exec(spec);
  ThreadPool four(4);
  const auto serial = thrown_by([&] { exec.compute(1); });
  const auto pooled = thrown_by([&] { exec.compute(1, {}, &four); });
  EXPECT_EQ(serial.first, typeid(CheckFailure).name()) << serial.second;
  EXPECT_EQ(pooled, serial);
}

/// Shard `s` of `spec` computed from the whole trimmed-window trace of each
/// replication — what the executor synthesized before it cut each trace to
/// its experiment's span — with every config on the scalar engine (the
/// batched lanes are bit-identical to it), audited live, and added in the
/// canonical order.
std::string full_window_payload(const EnsembleSpec& spec, std::size_t s) {
  const auto [lo, hi] = shard_bounds(spec.replications, spec.num_shards, s);
  const std::vector<SimTime> starts =
      Scenario{spec.window, spec.slack_fraction, spec.checkpoint_cost,
               spec.starts_grid}
          .starts();
  const ReplicationSeeder seeder(spec.seed);
  const InstanceType& instance = cc2_instance();
  ShardRecordBuilder builder(spec.spec_hash(), s, lo, hi,
                             static_cast<std::uint32_t>(spec.configs.size()));
  for (std::size_t r = lo; r < hi; ++r) {
    const SpotMarket market(
        generate_traces(trimmed_spec(
            paper_trace_spec(seeder.seed(r, SeedDomain::kTrace)),
            window_end(spec.window))),
        instance, QueueDelayModel());
    const Experiment experiment = Experiment::paper(
        starts[r % starts.size()], spec.slack_fraction, spec.checkpoint_cost,
        seeder.seed(r, SeedDomain::kQueueDelay));
    for (const EnsembleConfig& config : spec.configs) {
      AuditObserver audit(experiment, instance.on_demand_rate,
                          AuditMode::kFull, spec.engine.regime);
      const auto strategy = config.make_strategy();
      Engine engine(market, experiment, *strategy, spec.engine);
      engine.add_observer(&audit);
      builder.add_run(engine.run());
    }
  }
  return builder.payload();
}

TEST(ShardExecutorTest, ComputeMatchesTheFullWindowTrace) {
  for (const VolatilityWindow window :
       {VolatilityWindow::kLow, VolatilityWindow::kHigh}) {
    for (const double slack : {0.15, 0.5}) {
      EnsembleSpec spec = mixed_lane_spec(2);
      spec.window = window;
      spec.slack_fraction = slack;
      spec.validate();
      const ShardExecutor exec(spec);
      for (std::size_t s = 0; s < spec.num_shards; ++s) {
        EXPECT_EQ(exec.compute(s), full_window_payload(spec, s))
            << (window == VolatilityWindow::kLow ? "low" : "high")
            << " window, slack " << slack << ", shard " << s;
      }
    }
  }
}

// The executor's span starts exactly at the history's start; a span that
// would start later (an experiment less than history_span into the trace)
// is refused, not silently served a shorter history.
TEST(ExperimentTracesTest, CoversTheHistoryOrRefuses) {
  const SyntheticTraceSpec spec =
      trimmed_spec(paper_trace_spec(3), window_end(VolatilityWindow::kHigh));
  Experiment experiment = Experiment::paper(2 * kDay + 7 * kHour, 0.15, 300);
  const ZoneTraceSet traces = experiment_traces(spec, experiment);
  EXPECT_EQ(traces.start(), experiment.start - experiment.history_span);
  EXPECT_EQ(traces.end(), experiment.deadline_time() + kPriceStep);

  experiment.start = experiment.history_span - kPriceStep;
  EXPECT_THROW(experiment_traces(spec, experiment), CheckFailure);
}

}  // namespace
}  // namespace redspot
