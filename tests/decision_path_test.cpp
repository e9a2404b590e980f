// Decision-path zero-copy / incremental-model properties (DESIGN.md §10).
//
// Four families of guarantees, all bit-exact:
//   * IncrementalMarkovModel::observe equals build_markov_model over the
//     same window after any sequence of slides — in unique-price mode AND
//     in quantile-binned mode — including the state-set-changing edges
//     (evicted last occurrence, appended new price), which slide rather
//     than rebuild, binned refits that outgrow the memo the last rebuild
//     sized, and production-shape slides over the paper traces.
//   * HistoryStats::advance equals a freshly constructed HistoryStats,
//     slid multi-zone memo entries included; a warm advance plus subset
//     reads allocates nothing, and a warm Adaptive re-plan allocates only
//     the winner's zone list — on its own and inside an engine.
//   * The steady-state decision path (constant-price slide + memoized
//     expected_uptime + Engine::min_observed_price) performs ZERO heap
//     allocations, verified through a global operator new hook.
//   * Engine::expected_uptime, answered from the engine's own model pool,
//     equals a from-scratch fit of the same window at every step of a
//     scalar Markov-Daly run and of an Adaptive run that changes bids.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "common/random.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/adaptive/estimator.hpp"
#include "core/adaptive/history_stats.hpp"
#include "core/batch/model_pool.hpp"
#include "core/engine.hpp"
#include "core/strategy.hpp"
#include "ensemble/shard_exec.hpp"
#include "exp/scenario.hpp"
#include "market/instance_type.hpp"
#include "markov/incremental.hpp"
#include "markov/model.hpp"
#include "markov/uptime.hpp"
#include "test_util.hpp"
#include "trace/synthetic.hpp"

// --- Allocation-counting hook -------------------------------------------------
//
// Replaces the global allocator for this test binary. Counting is gated on
// an atomic flag so the hook costs one relaxed load when disabled; tests
// flip it on around the exact region they assert about.
//
// Sanitizer builds keep their own allocator interceptors (replacing
// operator new underneath ASan trips alloc-dealloc-mismatch), so the hook
// compiles out there: the counter reads 0 and the zero-allocation
// assertions hold vacuously. Release CI enforces them for real.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define REDSPOT_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define REDSPOT_ALLOC_HOOK 0
#else
#define REDSPOT_ALLOC_HOOK 1
#endif
#else
#define REDSPOT_ALLOC_HOOK 1
#endif

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

#if REDSPOT_ALLOC_HOOK
void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = align;
  void* p = nullptr;
  if (posix_memalign(&p, align, size) != 0) throw std::bad_alloc();
  return p;
}
#endif  // REDSPOT_ALLOC_HOOK
}  // namespace

#if REDSPOT_ALLOC_HOOK
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // REDSPOT_ALLOC_HOOK

namespace redspot {
namespace {

using testing::constant_series;
using testing::make_market;
using testing::single_zone;
using testing::step_series;
using testing::zones;

/// Allocations performed while the guard is alive.
class AllocCounter {
 public:
  AllocCounter() {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  ~AllocCounter() { g_count_allocs.store(false, std::memory_order_relaxed); }
  std::uint64_t count() const {
    return g_alloc_count.load(std::memory_order_relaxed);
  }
};

PriceSeries series_of(const std::vector<double>& prices, SimTime start = 0) {
  std::vector<Money> samples;
  samples.reserve(prices.size());
  for (double p : prices) samples.push_back(Money::dollars(p));
  return PriceSeries(start, kPriceStep, std::move(samples));
}

/// Bit-exact model comparison: same states, same doubles, same step.
void expect_models_identical(const MarkovModel& got, const MarkovModel& want) {
  ASSERT_EQ(got.num_states(), want.num_states());
  EXPECT_EQ(got.step, want.step);
  for (std::size_t s = 0; s < got.num_states(); ++s)
    EXPECT_EQ(got.state_prices[s], want.state_prices[s]) << "state " << s;
  for (std::size_t r = 0; r < got.num_states(); ++r)
    for (std::size_t c = 0; c < got.num_states(); ++c)
      EXPECT_EQ(got.trans(r, c), want.trans(r, c)) << r << "," << c;
}

/// Slides a window over `series` with random forward shifts and checks the
/// incremental model against a from-scratch build at every step.
void check_random_slides(const PriceSeries& series, std::uint64_t seed,
                         std::size_t rounds) {
  Rng rng(seed);
  IncrementalMarkovModel inc;
  const std::size_t window_samples = 48;
  const std::vector<Money> bids = {Money::dollars(0.05), Money::dollars(0.27),
                                   Money::dollars(0.50), Money::dollars(2.40)};

  std::size_t lo = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const SimTime from = series.start() + static_cast<SimTime>(lo) * kPriceStep;
    const SimTime to = from + static_cast<SimTime>(window_samples) * kPriceStep;
    const PriceView window = series.view().window(from, to);

    const MarkovModel& got = inc.observe(window);
    const MarkovModel want = build_markov_model(window);
    expect_models_identical(got, want);

    // The memoized uptime must equal the free function on the same model.
    const Money cur = window.sample(window.size() - 1);
    for (const Money bid : bids) {
      EXPECT_EQ(inc.expected_uptime(cur, bid),
                expected_uptime(want, cur, bid))
          << "round " << round << " bid " << bid.to_double();
    }

    // Forward shift of 0-4 samples (0 exercises the identical-window path).
    lo += rng.uniform_index(5);
    if (lo + window_samples > series.size()) break;
  }
  EXPECT_GT(inc.incremental_slides(), 0u);
}

// --- Incremental Markov vs from-scratch --------------------------------------

TEST(IncrementalMarkov, RandomSlidesMatchFromScratch_UniqueMode) {
  // Small price alphabet: every window has <= 6 distinct prices, so the
  // model stays in exact unique-price mode throughout.
  Rng rng(1234);
  const double alphabet[] = {0.25, 0.27, 0.30, 0.55, 0.81, 2.40};
  std::vector<double> prices(400);
  double cur = alphabet[0];
  for (auto& p : prices) {
    if (rng.uniform() < 0.3) cur = alphabet[rng.uniform_index(6)];
    p = cur;  // piecewise-constant, like a real trace
  }
  check_random_slides(series_of(prices), 99, 200);
}

TEST(IncrementalMarkov, RandomSlidesMatchFromScratch_BinnedMode) {
  // Random-walk prices: nearly every sample distinct, so every 48-sample
  // window exceeds max_states = 32 and the binned slide path runs.
  Rng rng(77);
  std::vector<double> prices(400);
  double cur = 0.30;
  for (auto& p : prices) {
    cur = std::max(0.01, cur + rng.uniform(-0.02, 0.02));
    p = cur;
  }
  check_random_slides(series_of(prices), 5150, 200);
}

TEST(IncrementalMarkov, MixedModeTransitionsMatchFromScratch) {
  // Alternating regimes: stretches of a tiny alphabet (unique mode) and
  // stretches of a random walk (binned mode), so slides cross the
  // unique <-> binned boundary both ways.
  Rng rng(4242);
  std::vector<double> prices(500);
  double cur = 0.30;
  for (std::size_t i = 0; i < prices.size(); ++i) {
    const bool walk = (i / 60) % 2 == 1;
    if (walk) {
      cur = std::max(0.01, cur + rng.uniform(-0.03, 0.03));
    } else if (rng.uniform() < 0.4) {
      cur = 0.25 + 0.05 * static_cast<double>(rng.uniform_index(4));
    }
    prices[i] = cur;
  }
  check_random_slides(series_of(prices), 31337, 300);
}

TEST(IncrementalMarkov, EvictedLastOccurrenceOfStateSlides) {
  // 0.9 appears exactly once, as the oldest sample of the first window.
  // Sliding one sample evicts its last occurrence: the state set shrinks
  // in place (no rebuild) and the model must match a from-scratch build
  // of the new window.
  std::vector<double> prices = {0.9};
  for (int i = 0; i < 12; ++i) prices.push_back(i % 2 == 0 ? 0.3 : 0.5);
  const PriceSeries s = series_of(prices);

  IncrementalMarkovModel inc;
  const PriceView w0 = s.view().window(s.start(), s.start() + 8 * kPriceStep);
  inc.observe(w0);
  ASSERT_EQ(inc.model().num_states(), 3u);
  const std::uint64_t rebuilds = inc.full_rebuilds();
  const std::uint64_t slides = inc.incremental_slides();

  const PriceView w1 =
      s.view().window(s.start() + kPriceStep, s.start() + 9 * kPriceStep);
  const MarkovModel& got = inc.observe(w1);
  EXPECT_EQ(got.num_states(), 2u);
  EXPECT_EQ(inc.full_rebuilds(), rebuilds);
  EXPECT_EQ(inc.incremental_slides(), slides + 1);
  expect_models_identical(got, build_markov_model(w1));
}

TEST(IncrementalMarkov, AppendedNewStateSlides) {
  // The appended sample introduces a price unseen in the current window:
  // the state set grows in place (no rebuild).
  std::vector<double> prices;
  for (int i = 0; i < 10; ++i) prices.push_back(i % 2 == 0 ? 0.3 : 0.5);
  prices.push_back(1.7);
  const PriceSeries s = series_of(prices);

  IncrementalMarkovModel inc;
  const PriceView w0 = s.view().window(s.start(), s.start() + 10 * kPriceStep);
  inc.observe(w0);
  ASSERT_EQ(inc.model().num_states(), 2u);
  const std::uint64_t rebuilds = inc.full_rebuilds();
  const std::uint64_t slides = inc.incremental_slides();

  const PriceView w1 =
      s.view().window(s.start() + kPriceStep, s.start() + 11 * kPriceStep);
  const MarkovModel& got = inc.observe(w1);
  EXPECT_EQ(got.num_states(), 3u);
  EXPECT_EQ(inc.full_rebuilds(), rebuilds);
  EXPECT_EQ(inc.incremental_slides(), slides + 1);
  expect_models_identical(got, build_markov_model(w1));
}

TEST(IncrementalMarkov, PriceSwapAtTheStateBoundSlides) {
  // A full unique-mode state set (4 prices, max_states 4) where one slide
  // appends a fifth price and evicts the last occurrence of another: the
  // union briefly outgrows the bound, the window does not.
  const std::vector<double> prices = {0.9, 0.3, 0.5, 0.7, 0.3, 0.5,
                                      0.7, 0.3, 1.1, 1.1, 0.5};
  const PriceSeries s = series_of(prices);
  IncrementalMarkovModel inc(4);
  const auto window_at = [&](std::size_t lo, std::size_t len) {
    return s.view().window(
        s.start() + static_cast<SimTime>(lo) * kPriceStep,
        s.start() + static_cast<SimTime>(lo + len) * kPriceStep);
  };
  inc.observe(window_at(0, 8));
  ASSERT_EQ(inc.model().num_states(), 4u);
  for (const auto& [lo, len] :
       {std::pair<std::size_t, std::size_t>{1, 8}, {1, 9}, {2, 9}}) {
    const PriceView w = window_at(lo, len);
    expect_models_identical(inc.observe(w), build_markov_model(w, 4));
    const Money cur = w.sample(w.size() - 1);
    EXPECT_EQ(inc.expected_uptime(cur, Money::cents(81)),
              expected_uptime(build_markov_model(w, 4), cur, Money::cents(81)));
  }
  EXPECT_EQ(inc.full_rebuilds(), 1u);
}

TEST(IncrementalMarkov, SameTransitionsButMovedOccupancyRefits) {
  // The slide evicts 0.3 -> 0.5 and appends 0.3 -> 0.5: the transition
  // counts net-cancel, but a 0.3 sample left and a 0.5 arrived, so the
  // smoothing distribution moved and the model must refresh.
  const PriceSeries s = series_of({0.3, 0.5, 0.5, 0.3, 0.5});
  IncrementalMarkovModel inc;
  inc.observe(s.view().window(s.start(), s.start() + 4 * kPriceStep));
  const std::uint64_t refreshes = inc.model_refreshes();
  const PriceView w =
      s.view().window(s.start() + kPriceStep, s.start() + 5 * kPriceStep);
  expect_models_identical(inc.observe(w), build_markov_model(w));
  EXPECT_EQ(inc.model_refreshes(), refreshes + 1);
}

TEST(IncrementalMarkov, BackwardSlideFallsBackToRebuild) {
  const PriceSeries s = series_of(std::vector<double>(40, 0.3));
  IncrementalMarkovModel inc;
  inc.observe(s.view().window(s.start() + 10 * kPriceStep,
                              s.start() + 30 * kPriceStep));
  const std::uint64_t rebuilds = inc.full_rebuilds();
  const PriceView back =
      s.view().window(s.start(), s.start() + 20 * kPriceStep);
  expect_models_identical(inc.observe(back), build_markov_model(back));
  EXPECT_EQ(inc.full_rebuilds(), rebuilds + 1);
}

TEST(IncrementalMarkov, ConstantSlideKeepsModelAndMemoAllocationFree) {
  // A constant-price slide removes and adds the same transition: counts
  // are net-unchanged, so the model is not re-finished, the uptime memo
  // survives, and the whole decision costs zero heap allocations.
  const PriceSeries s = constant_series(0.3, 100);
  IncrementalMarkovModel inc;
  const auto window_at = [&](std::size_t lo) {
    return s.view().window(s.start() + static_cast<SimTime>(lo) * kPriceStep,
                           s.start() +
                               static_cast<SimTime>(lo + 48) * kPriceStep);
  };
  inc.observe(window_at(0));
  const Money bid = Money::dollars(0.5);
  const Duration up0 = inc.expected_uptime(Money::dollars(0.3), bid);
  const std::uint64_t refreshes = inc.model_refreshes();
  const std::uint64_t hits = inc.memo_hits();

  // Warm slide once (vectors reach steady-state capacity), then assert the
  // next slides are allocation-free.
  inc.observe(window_at(1));
  {
    AllocCounter allocs;
    for (std::size_t lo = 2; lo <= 10; ++lo) {
      inc.observe(window_at(lo));
      const Duration up = inc.expected_uptime(Money::dollars(0.3), bid);
      EXPECT_EQ(up, up0);
    }
    EXPECT_EQ(allocs.count(), 0u) << "steady-state decision path allocated";
  }
  EXPECT_EQ(inc.model_refreshes(), refreshes) << "model was re-finished";
  EXPECT_EQ(inc.memo_hits(), hits + 9) << "uptime memo was invalidated";
  EXPECT_EQ(inc.full_rebuilds(), 1u);
}

TEST(IncrementalMarkov, BinnedRefitGrowingTheStateSetGrowsTheMemo) {
  // Regression: a binned slide refits through detail::fit_markov_model,
  // which can yield MORE states than the last full rebuild did — quantile
  // bins collapse while duplicate-heavy mass dominates the window and
  // spread back out as it leaves. The memo, keyed state*n+alive, must grow
  // with the model instead of indexing past the slots the rebuild sized.
  constexpr std::size_t kWindow = 256;
  constexpr std::size_t kMax = 8;
  std::vector<Money> samples;
  // First window: 12 distinct prices (> kMax, so the mode is binned) with
  // ~95% of the mass piled on 30 cents, collapsing the bin representatives.
  for (std::size_t i = 0; i < kWindow; ++i) {
    samples.push_back(i % 20 == 0
                          ? Money::cents(25 + static_cast<std::int64_t>(
                                                  (i / 20) % 12))
                          : Money::cents(30));
  }
  // Tail: the same 12 prices spread evenly, so slid windows' bins fan out.
  for (std::size_t i = 0; i < kWindow; ++i)
    samples.push_back(Money::cents(25 + static_cast<std::int64_t>(i % 12)));
  const PriceSeries series(0, kPriceStep, std::move(samples));

  IncrementalMarkovModel slid(kMax);
  slid.observe(PriceView(0, kPriceStep, series.samples().subspan(0, kWindow)));
  const std::size_t states_at_rebuild = slid.model().num_states();

  std::size_t max_states_seen = states_at_rebuild;
  for (std::size_t lo = 1; lo + kWindow <= series.size(); ++lo) {
    const PriceView w(series.time_of(lo), kPriceStep,
                      series.samples().subspan(lo, kWindow));
    slid.observe(w);
    if (slid.model().num_states() > max_states_seen)
      max_states_seen = slid.model().num_states();
    IncrementalMarkovModel fresh(kMax);
    fresh.observe(w);
    const Money price = w.sample(kWindow - 1);
    for (std::int64_t c = 24; c <= 40; c += 2) {
      ASSERT_EQ(slid.expected_uptime(price, Money::cents(c)),
                fresh.expected_uptime(price, Money::cents(c)))
          << "lo=" << lo << " bid=" << c << "c";
    }
  }
  // Only a regression test if the state set actually outgrew the memo the
  // full rebuild sized.
  EXPECT_GT(max_states_seen, states_at_rebuild);
  EXPECT_GT(slid.incremental_slides(), 0u);
}

/// Which refit path each forward move of a production-shape window took,
/// told apart by the windows' own distinct prices.
struct SlidePaths {
  std::size_t unique_slides = 0;      ///< unique -> unique, same state set
  std::size_t state_set_changes = 0;  ///< unique -> unique, set changed
  std::size_t binned_slides = 0;      ///< binned -> binned
  std::size_t to_binned = 0;          ///< unique -> binned
  std::size_t to_unique = 0;          ///< binned -> unique
  std::size_t backward_jumps = 0;
};

/// Slides 576-sample windows (the 2-day decision window) over samples
/// [lo, hi) of `zone` through one pooled-size model — forward shifts of
/// 0-20 samples, an occasional backward jump — and checks the model and
/// E[Tu] at three bids against a from-scratch fit at every step.
void check_production_slides(const PriceSeries& zone, std::size_t lo,
                             std::size_t hi, std::uint64_t seed,
                             SlidePaths& paths) {
  constexpr std::size_t kWindow = 576;
  constexpr std::size_t kMax = batch::ZoneModelPool::kMaxStates;
  const Money bids[] = {Money::cents(27), Money::cents(81), Money::cents(240)};
  Rng rng(seed);
  IncrementalMarkovModel inc(kMax);
  std::vector<std::int64_t> prev_states;
  std::size_t prev_lo = SIZE_MAX;
  for (std::size_t at = lo; at + kWindow <= hi;) {
    const PriceView w(zone.time_of(at), kPriceStep,
                      zone.samples().subspan(at, kWindow));
    std::vector<std::int64_t> states;
    for (const Money m : w.samples()) states.push_back(m.micros());
    std::sort(states.begin(), states.end());
    states.erase(std::unique(states.begin(), states.end()), states.end());

    const std::uint64_t slides = inc.incremental_slides();
    const std::uint64_t rebuilds = inc.full_rebuilds();
    const MarkovModel& got = inc.observe(w);
    const MarkovModel want = build_markov_model(w, kMax);
    if (got.state_prices != want.state_prices || !(got.trans == want.trans) ||
        got.step != want.step) {
      expect_models_identical(got, want);
      FAIL() << "model differs from a fresh fit at sample " << at;
    }
    const Money cur = w.sample(kWindow - 1);
    for (const Money bid : bids) {
      ASSERT_EQ(inc.expected_uptime(cur, bid), expected_uptime(want, cur, bid))
          << "sample " << at << " bid " << bid.to_double();
    }

    if (prev_lo != SIZE_MAX && at < prev_lo) {
      ++paths.backward_jumps;
      EXPECT_EQ(inc.full_rebuilds(), rebuilds + 1) << "sample " << at;
    } else if (prev_lo != SIZE_MAX && at > prev_lo) {
      // Every forward move either slides or rebuilds, exactly once.
      EXPECT_EQ(inc.incremental_slides() + inc.full_rebuilds(),
                slides + rebuilds + 1)
          << "sample " << at;
      const bool was_binned = prev_states.size() > kMax;
      const bool is_binned = states.size() > kMax;
      if (!was_binned && !is_binned) {
        ++(states == prev_states ? paths.unique_slides
                                 : paths.state_set_changes);
      } else if (was_binned && is_binned) {
        ++paths.binned_slides;
      } else {
        ++(is_binned ? paths.to_binned : paths.to_unique);
      }
    }
    prev_states = std::move(states);
    prev_lo = at;
    if (rng.uniform_index(64) == 0 && at >= lo + 300) {
      at -= 1 + rng.uniform_index(300);
    } else {
      at += rng.uniform_index(21);
    }
  }
}

TEST(IncrementalMarkov, PaperTraceSlidesMatchFromScratch) {
  // Production shape: the pooled model size, 2-day windows, and the
  // paper's traces from the high-volatility month through the
  // low-volatility one, where windows move between exact unique-price
  // mode and quantile bins.
  const ZoneTraceSet traces = paper_traces(42);
  const std::size_t lo = traces.zone(0).index_of(
      window_start(VolatilityWindow::kHigh) - 2 * kDay);
  const std::size_t hi =
      traces.zone(0).index_of(window_end(VolatilityWindow::kLow) - kPriceStep);
  SlidePaths paths;
  for (std::size_t z = 0; z < traces.num_zones(); ++z)
    check_production_slides(traces.zone(z), lo, hi, 1000 + z, paths);
  EXPECT_GT(paths.unique_slides, 0u);
  EXPECT_GT(paths.state_set_changes, 0u);
  EXPECT_GT(paths.binned_slides, 0u);
  EXPECT_GT(paths.to_binned, 0u);
  EXPECT_GT(paths.to_unique, 0u);
  EXPECT_GT(paths.backward_jumps, 0u);

  // One ensemble replication's span: mc-ensemble's traffic, a fresh
  // high-volatility realization synthesized over only the samples its
  // experiment reads, whose windows stay quantile-binned.
  const SyntheticTraceSpec spec =
      trimmed_spec(paper_trace_spec(7), window_end(VolatilityWindow::kHigh));
  const Experiment experiment = Experiment::paper(
      window_start(VolatilityWindow::kHigh) + 9 * kDay + 5 * kHour, 0.15, 300);
  const ZoneTraceSet span = experiment_traces(spec, experiment);
  SlidePaths span_paths;
  for (std::size_t z = 0; z < span.num_zones(); ++z)
    check_production_slides(span.zone(z), 0, span.zone(z).size(), 2000 + z,
                            span_paths);
  EXPECT_GT(span_paths.binned_slides, 0u);
}

// --- HistoryStats incremental advance ----------------------------------------

/// Compares every per-zone stat, plus the combined stats of EVERY zone
/// subset, between `got` (slid) and a freshly built HistoryStats. Querying
/// every multi-zone mask each round keeps all of `got`'s memo entries live,
/// so they are compared after many slides, not as fresh fills.
void expect_stats_identical(const HistoryStats& got, const HistoryStats& want) {
  ASSERT_EQ(got.num_zones(), want.num_zones());
  ASSERT_EQ(got.bid_grid().size(), want.bid_grid().size());
  EXPECT_EQ(got.window_length(), want.window_length());
  for (std::size_t z = 0; z < got.num_zones(); ++z) {
    for (std::size_t b = 0; b < got.bid_grid().size(); ++b) {
      const ZoneBidStats& g = got.stats(z, b);
      const ZoneBidStats& w = want.stats(z, b);
      EXPECT_EQ(g.availability, w.availability) << z << "," << b;
      EXPECT_EQ(g.mean_paid_price, w.mean_paid_price) << z << "," << b;
      EXPECT_EQ(g.interruptions_per_hour, w.interruptions_per_hour)
          << z << "," << b;
      EXPECT_EQ(g.mean_up_spell, w.mean_up_spell) << z << "," << b;
    }
  }
  const std::size_t num_masks = std::size_t{1} << got.num_zones();
  for (std::size_t mask = 1; mask < num_masks; ++mask) {
    std::vector<std::size_t> subset;
    for (std::size_t z = 0; z < got.num_zones(); ++z)
      if (mask & (std::size_t{1} << z)) subset.push_back(z);
    for (std::size_t b = 0; b < got.bid_grid().size(); ++b) {
      EXPECT_EQ(got.combined_availability(subset, b),
                want.combined_availability(subset, b))
          << "mask " << mask << " bid " << b;
      EXPECT_EQ(got.full_outage_rate(subset, b),
                want.full_outage_rate(subset, b))
          << "mask " << mask << " bid " << b;
    }
  }
}

TEST(HistoryStatsIncremental, RandomSlidesMatchFreshConstruction) {
  Rng rng(2026);
  // Three zones of piecewise-constant prices over a small alphabet, so up
  // and down spells cross the window edges in interesting ways.
  std::vector<PriceSeries> series;
  for (std::uint64_t z = 0; z < 3; ++z) {
    Rng zr(900 + z);
    std::vector<double> prices(600);
    double cur = 0.30;
    for (auto& p : prices) {
      if (zr.uniform() < 0.2)
        cur = 0.20 + 0.15 * static_cast<double>(zr.uniform_index(5));
      p = cur;
    }
    series.push_back(series_of(prices));
  }
  const ZoneTraceSet traces = zones(std::move(series));
  const std::vector<Money> grid = {Money::dollars(0.25), Money::dollars(0.35),
                                   Money::dollars(0.50), Money::dollars(0.80)};

  const std::size_t window_samples = 96;
  std::size_t lo = 0;
  HistoryStats slid(traces, traces.start(),
                    traces.start() +
                        static_cast<SimTime>(window_samples) * kPriceStep,
                    grid);
  for (int round = 0; round < 120; ++round) {
    lo += rng.uniform_index(6);  // 0..5 samples forward
    // Occasionally grow or shrink the right edge by a sample.
    const std::size_t len = window_samples + rng.uniform_index(3) - 1;
    if (lo + len > 600) break;
    const SimTime from =
        traces.start() + static_cast<SimTime>(lo) * kPriceStep;
    const SimTime to = from + static_cast<SimTime>(len) * kPriceStep;
    slid.advance(traces, from, to);
    HistoryStats fresh(traces, from, to, grid);
    expect_stats_identical(slid, fresh);
  }
  // Only a rebuild (a shrinking right edge here) refills the 4 multi-zone
  // entries; every other round compared slid ones.
  EXPECT_GT(slid.incremental_advances(), 4 * slid.full_rebuilds());
  EXPECT_LE(slid.subset_fills(), 4 * slid.full_rebuilds());
}

TEST(HistoryStatsIncremental, BackwardSlideRebuildsAndMatches) {
  const ZoneTraceSet traces = zones({
      step_series({{0.3, 50}, {0.6, 50}, {0.3, 50}}),
      step_series({{0.6, 30}, {0.3, 60}, {0.6, 60}}),
      step_series({{0.3, 80}, {0.6, 40}, {0.3, 30}}),
  });
  const std::vector<Money> grid = {Money::dollars(0.4)};
  const SimTime from0 = traces.start() + 40 * kPriceStep;
  const SimTime to0 = traces.start() + 100 * kPriceStep;
  HistoryStats slid(traces, from0, to0, grid);
  expect_stats_identical(slid, HistoryStats(traces, from0, to0, grid));
  const std::uint64_t rebuilds = slid.full_rebuilds();
  // Backward move: must rebuild (dropping the memo), and match fresh.
  const SimTime from = traces.start();
  const SimTime to = traces.start() + 60 * kPriceStep;
  slid.advance(traces, from, to);
  EXPECT_EQ(slid.full_rebuilds(), rebuilds + 1);
  HistoryStats fresh(traces, from, to, grid);
  expect_stats_identical(slid, fresh);
  EXPECT_EQ(slid.subset_fills(), 8u);  // 4 masks, filled again after it
}

TEST(HistoryStatsIncremental, SteadyStateReplanAllocatesOnlyTheWinnersZones) {
  // The paper's shape: 3 zones, the paper bid grid, a 2-day window, and
  // Adaptive's candidate policies.
  std::vector<PriceSeries> series;
  for (std::uint64_t z = 0; z < 3; ++z) {
    Rng zr(510 + z);
    std::vector<double> prices(1400);
    double cur = 0.30;
    for (auto& p : prices) {
      if (zr.uniform() < 0.1)
        cur = 0.25 + 0.40 * static_cast<double>(zr.uniform_index(6));
      p = cur;
    }
    series.push_back(series_of(prices));
  }
  const ZoneTraceSet traces = zones(std::move(series));
  constexpr std::size_t kWindow = 576;
  std::size_t lo = 0;
  const auto advance_to = [&](HistoryStats& hist, std::size_t new_lo) {
    const SimTime from =
        traces.start() + static_cast<SimTime>(new_lo) * kPriceStep;
    hist.advance(traces, from,
                 from + static_cast<SimTime>(kWindow) * kPriceStep);
  };
  HistoryStats hist(traces, traces.start(),
                    traces.start() + static_cast<SimTime>(kWindow) * kPriceStep,
                    paper_bid_grid());
  const std::vector<std::vector<std::size_t>> multi_zone = {
      {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}};
  EstimatorInputs in;
  in.remaining_compute = 10 * kHour;
  in.remaining_time = 20 * kHour;
  in.current_prices = {0.30, 0.45, 0.65};
  double sink = 0.0;
  const auto read_masks = [&] {
    for (const auto& subset : multi_zone)
      for (std::size_t b = 0; b < hist.bid_grid().size(); ++b)
        sink += hist.combined_availability(subset, b) +
                hist.full_outage_rate(subset, b);
  };
  // Warm: the memo holds every multi-zone entry.
  read_masks();
  sink += best_permutation(hist, AdaptiveStrategy::kMaxZones,
                           AdaptiveStrategy::kCandidatePolicies, in)
              .predicted_cost.to_double();
  {
    AllocCounter allocs;
    for (int step = 0; step < 40; ++step) {
      lo += 1 + static_cast<std::size_t>(step % 12);
      advance_to(hist, lo);
      read_masks();
    }
    EXPECT_EQ(allocs.count(), 0u) << "advance + subset reads allocated";
  }
  constexpr std::uint64_t kDecisions = 40;
  {
    AllocCounter allocs;
    for (std::uint64_t step = 0; step < kDecisions; ++step) {
      lo += 1 + step % 12;
      advance_to(hist, lo);
      const PermutationEstimate best =
          best_permutation(hist, AdaptiveStrategy::kMaxZones,
                           AdaptiveStrategy::kCandidatePolicies, in);
      sink += best.predicted_cost.to_double();
    }
    EXPECT_LE(allocs.count(), kDecisions)
        << "a decision allocated more than the winner's zone list";
  }
  EXPECT_GT(sink, 0.0);
  EXPECT_EQ(hist.full_rebuilds(), 1u);
  EXPECT_EQ(hist.subset_fills(), 4u) << "a slide refilled a memo entry";
}

TEST(AdaptiveDecision, WarmReconsiderAllocatesOnlyTheWinnersZones) {
  // Engine-level: a second AdaptiveStrategy re-decides against a live
  // engine after each of its events. Once warm (stats built, inputs
  // sized), a decision allocates the winner's zone list and, when it
  // switches, the config's copy of it: the estimator inputs are refilled
  // in place and shared with the hysteresis estimate, whose incumbent
  // zone list is moved, not copied.
  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 80};
  AdaptiveStrategy strategy;
  Engine engine(market, scenario.experiment(3), strategy);
  engine.begin();
  AdaptiveStrategy probe;
  probe.initial(engine);
  std::uint64_t decisions = 0;
  std::uint64_t switches = 0;
  while (!engine.finished()) {
    engine.step_one();
    if (engine.finished()) break;
    AllocCounter allocs;
    const std::optional<EngineConfig> next =
        probe.reconsider(engine, DecisionPoint::kPriceTick);
    // The winner's zone list, plus the adopted config's copy on a switch.
    ASSERT_LE(allocs.count(), next.has_value() ? 2u : 1u)
        << "decision " << decisions << " at t=" << engine.now();
    switches += next.has_value() ? 1 : 0;
    ++decisions;
  }
  engine.finalize();
  EXPECT_GT(decisions, 100u);
  EXPECT_GT(switches, 0u) << "the probe never switched";
}

// --- Live trace growth (serve tick ingestion) --------------------------------
//
// The serve daemon appends one sample per zone per tick into pre-reserved
// storage and re-advances trailing windows over the grown trace. Growth
// must keep the incremental paths incremental (stable base pointer) and
// bit-identical to fresh construction.

TEST(LiveTraceGrowth, AppendExtendsGridInPlace) {
  PriceSeries s(0, kPriceStep, {Money::dollars(0.30)});
  s.reserve_total(10);
  const Money* base = s.samples().data();
  for (int i = 1; i < 10; ++i)
    s.append(Money::dollars(0.30 + 0.01 * static_cast<double>(i)));
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(s.samples().data(), base) << "reserved append reallocated";
  EXPECT_EQ(s.end(), 10 * kPriceStep);
  EXPECT_EQ(s.at(9 * kPriceStep), Money::dollars(0.39));
}

TEST(LiveTraceGrowth, HistoryStatsAdvancesIncrementallyAcrossAppends) {
  Rng rng(404);
  std::vector<Rng> zrs;
  for (std::uint64_t z = 0; z < 3; ++z) zrs.emplace_back(700 + z);
  const auto next_price = [](Rng& zr) {
    return Money::dollars(0.20 +
                          0.15 * static_cast<double>(zr.uniform_index(5)));
  };
  std::vector<PriceSeries> series;
  for (std::uint64_t z = 0; z < 3; ++z) {
    std::vector<Money> samples;
    samples.reserve(200);
    for (int i = 0; i < 200; ++i) samples.push_back(next_price(zrs[z]));
    series.emplace_back(0, kPriceStep, std::move(samples));
  }
  ZoneTraceSet traces = zones(std::move(series));
  traces.reserve_total(500);

  const std::vector<Money> grid = {Money::dollars(0.25), Money::dollars(0.35),
                                   Money::dollars(0.50)};
  constexpr std::size_t kWindow = 96;
  HistoryStats slid(traces, traces.end() - kWindow * kPriceStep, traces.end(),
                    grid);
  const std::uint64_t rebuilds = slid.full_rebuilds();
  while (traces.zone(0).size() < 500) {
    std::vector<Money> tick;
    for (std::uint64_t z = 0; z < 3; ++z) tick.push_back(next_price(zrs[z]));
    traces.append_tick(tick);
    if (rng.uniform() < 0.4) continue;  // tenants don't re-advise every tick
    const SimTime to = traces.end();
    const SimTime from = to - static_cast<SimTime>(kWindow) * kPriceStep;
    slid.advance(traces, from, to);
    HistoryStats fresh(traces, from, to, grid);
    expect_stats_identical(slid, fresh);
  }
  EXPECT_EQ(slid.full_rebuilds(), rebuilds) << "growth forced a rebuild";
  EXPECT_GT(slid.incremental_advances(), 0u);
  EXPECT_EQ(slid.subset_fills(), 4u) << "a slide refilled a memo entry";
}

TEST(LiveTraceGrowth, MarkovModelSlidesAcrossAppends) {
  Rng zr(55);
  std::vector<Money> samples;
  samples.reserve(200);
  for (int i = 0; i < 200; ++i)
    samples.push_back(
        Money::dollars(0.20 + 0.15 * static_cast<double>(zr.uniform_index(5))));
  PriceSeries series(0, kPriceStep, std::move(samples));
  series.reserve_total(400);

  constexpr std::size_t kWindow = 96;
  IncrementalMarkovModel inc(8);  // small alphabet: unique-price mode
  inc.observe(series.view(series.end() - kWindow * kPriceStep, series.end()));
  while (series.size() < 400) {
    series.append(
        Money::dollars(0.20 + 0.15 * static_cast<double>(zr.uniform_index(5))));
    const PriceView w =
        series.view(series.end() - kWindow * kPriceStep, series.end());
    expect_models_identical(inc.observe(w), build_markov_model(w));
  }
  EXPECT_GT(inc.incremental_slides(), 0u);
  EXPECT_EQ(inc.full_rebuilds(), 1u) << "growth forced a rebuild";
}

// --- Engine history at the trace edge ----------------------------------------

TEST(EngineHistory, MinObservedPriceAtTraceStartSeesOnlyElapsedSamples) {
  // The cheapest price (0.20) only appears from the second sample onward.
  // At t = start the engine has seen exactly one sample, so S_min must be
  // 0.90 — a windowing bug that reads the whole trace would report 0.20.
  const ZoneTraceSet traces =
      single_zone(step_series({{0.90, 1}, {0.20, 5}, {0.70, 30}}));
  const SpotMarket market = make_market(traces);
  const Experiment experiment = testing::small_experiment(1.0, 0.5, 60);
  ASSERT_EQ(experiment.start, traces.start());

  FixedStrategy strategy(Money::dollars(1.0), {0},
                         make_policy(PolicyKind::kThreshold));
  Engine engine(market, experiment, strategy);

  // Pre-run: now() == experiment.start, history is the partial first step.
  const PriceView h = engine.history(0);
  EXPECT_EQ(h.start(), traces.start());
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(engine.min_observed_price(0), Money::dollars(0.90));
}

TEST(EngineHistory, MinObservedPriceIsAllocationFree) {
  const ZoneTraceSet traces =
      single_zone(step_series({{0.90, 4}, {0.20, 5}, {0.70, 30}}));
  const SpotMarket market = make_market(traces);
  const Experiment experiment =
      testing::small_experiment(1.0, 0.5, 60, 6 * kPriceStep);

  FixedStrategy strategy(Money::dollars(1.0), {0},
                         make_policy(PolicyKind::kThreshold));
  Engine engine(market, experiment, strategy);

  Money min = Money::dollars(0);
  {
    AllocCounter allocs;
    min = engine.min_observed_price(0);
    EXPECT_EQ(allocs.count(), 0u) << "min_observed_price allocated";
  }
  // History [0, 6 steps) covers the 0.90 run and two 0.20 samples.
  EXPECT_EQ(min, Money::dollars(0.20));
}

// --- Engine-owned Markov up-time ---------------------------------------------

/// Steps `engine` to completion and, after every dispatched event, checks
/// Engine::expected_uptime of every configured zone against the
/// from-scratch fit of the same window. Returns the distinct bids (micros)
/// the run used.
std::set<std::int64_t> expect_uptime_matches_from_scratch(Engine& engine) {
  std::set<std::int64_t> bids;
  std::size_t checks = 0;
  engine.begin();
  while (!engine.finished()) {
    engine.step_one();
    if (engine.finished()) break;
    bids.insert(engine.bid().micros());
    for (const std::size_t zone : engine.zone_ids()) {
      const Duration want = expected_uptime(
          build_markov_model(engine.history(zone),
                             batch::ZoneModelPool::kMaxStates),
          engine.price(zone), engine.bid());
      const Duration got = engine.expected_uptime(zone);
      if (got != want) {
        ADD_FAILURE() << "zone " << zone << " at t=" << engine.now()
                      << ": engine " << got << " vs from-scratch " << want;
        return bids;
      }
      ++checks;
    }
  }
  engine.finalize();
  EXPECT_GT(checks, 0u);
  return bids;
}

TEST(EngineUptime, ScalarMarkovDalyRunMatchesFromScratch) {
  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 80};
  FixedStrategy strategy(Money::cents(81), {0, 1, 2},
                         make_policy(PolicyKind::kMarkovDaly));
  Engine engine(market, scenario.experiment(3), strategy);
  expect_uptime_matches_from_scratch(engine);
}

TEST(EngineUptime, AdaptiveRunChangingBidsMatchesFromScratch) {
  const SpotMarket market(paper_traces(42), cc2_instance(),
                          QueueDelayModel());
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 80};
  AdaptiveStrategy strategy;
  Engine engine(market, scenario.experiment(3), strategy);
  EXPECT_GE(expect_uptime_matches_from_scratch(engine).size(), 2u)
      << "the Adaptive run never changed its bid";
}

}  // namespace
}  // namespace redspot
