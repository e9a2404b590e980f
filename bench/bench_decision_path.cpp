// Decision-path microbenchmarks (DESIGN.md §10) with a machine-readable
// report for the CI tolerance gate.
//
// Suites 1-4 compare the zero-copy / incremental decision path against
// the materialize-and-rebuild path it replaced:
//
//   1. history query    — PriceView window + min scan vs an owning
//                         PriceSeries::window materialization.
//   2. markov refit     — IncrementalMarkovModel::observe (slide + memoized
//                         uptime) vs build_markov_model from scratch +
//                         free expected_uptime, in unique-price AND
//                         quantile-binned mode (a random walk and the
//                         paper trace's high-volatility month), plus the
//                         heap allocations of warm binned slides.
//   3. adaptive re-plan — HistoryStats::advance vs fresh construction, each
//                         followed by reads of all 4 multi-zone subsets (so
//                         the slid subset memo is measured), plus the heap
//                         allocations of one warm decision (advance +
//                         best_permutation), and the argmin scan against
//                         pricing every permutation through
//                         estimate_permutation (adaptive_scan_speedup;
//                         both must find the same cost).
//   4. fig4 mini-sweep  — end-to-end engine runs (Threshold + Markov-Daly,
//                         3 bids, several starts) under the real policies
//                         vs bench-local legacy policies that reproduce the
//                         old per-decision materialize + rebuild behaviour.
//                         Totals are asserted bit-identical: the two paths
//                         make exactly the same decisions.
//
// A global operator-new hook additionally counts heap allocations on the
// steady-state policy path (constant-price slide + memoized uptime), which
// must be zero.
//
// Suite 6 times one paper-trace fixed-policy sweep through run_fixed_sweep
// against the same audited lanes driven straight through
// BatchedSweepEngine in run_fixed_sweep's 16-lane groups. Their paired
// ratio, sweep_entry_overhead, is what a sweep costs beyond its lanes (an
// unjournaled sweep must not hash its market); results are asserted
// bit-identical.
//
// Usage: bench_decision_path [--quick] [--out report.json]
// Writes BENCH_decision_path.json (see tools/bench_report.hpp) and prints
// a human-readable summary.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "ckpt/daly.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/adaptive/estimator.hpp"
#include "core/adaptive/history_stats.hpp"
#include "core/batch/batched_engine.hpp"
#include "core/batch/model_pool.hpp"
#include "core/engine.hpp"
#include "core/policies/rising_edge.hpp"
#include "core/strategy.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "fault/audit_observer.hpp"
#include "journal/run_record.hpp"
#include "markov/incremental.hpp"
#include "markov/model.hpp"
#include "markov/uptime.hpp"
#include "trace/synthetic.hpp"
#include "trace/zone_traces.hpp"

// --- Allocation-counting hook (mirrors tests/decision_path_test.cpp) --------
//
// Compiled out under sanitizers, whose allocator interceptors clash with a
// replaced operator new; the allocation metrics then read 0.

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

// External linkage: stores cannot be elided, so accumulating results here
// defeats dead-code elimination of the measured work.
std::int64_t g_sink = 0;

namespace {

using Clock = std::chrono::steady_clock;

/// Median over `reps` timing runs of `iters` calls each, in ns per call.
template <typename F>
double median_ns(int reps, int iters, F&& fn) {
  std::vector<double> per_op;
  per_op.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn(i);
    const auto t1 = Clock::now();
    per_op.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(iters));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

/// Median of `v` (upper median for even sizes).
double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// --- Synthetic traces --------------------------------------------------------

/// Piecewise-constant series over a small price alphabet (CC2-like: few
/// distinct levels, long constant runs). Windows stay in unique mode.
PriceSeries alphabet_series(std::uint64_t seed, std::size_t samples,
                            double switch_prob = 0.15) {
  static const double kLevels[] = {0.25, 0.27, 0.30, 0.35,
                                   0.55, 0.81, 1.20, 2.50};
  Rng rng(seed);
  std::vector<Money> out;
  out.reserve(samples);
  Money cur = Money::dollars(kLevels[0]);
  for (std::size_t i = 0; i < samples; ++i) {
    if (rng.uniform() < switch_prob)
      cur = Money::dollars(kLevels[rng.uniform_index(8)]);
    out.push_back(cur);
  }
  return PriceSeries(0, kPriceStep, std::move(out));
}

/// Random-walk series: nearly every sample distinct, so 2-day windows
/// exceed max_states and the quantile-binned path runs.
PriceSeries walk_series(std::uint64_t seed, std::size_t samples) {
  Rng rng(seed);
  std::vector<Money> out;
  out.reserve(samples);
  double cur = 0.30;
  for (std::size_t i = 0; i < samples; ++i) {
    cur = std::max(0.05, cur + rng.uniform(-0.02, 0.02));
    out.push_back(Money::dollars(cur));
  }
  return PriceSeries(0, kPriceStep, std::move(out));
}

// --- Legacy policies ---------------------------------------------------------
//
// Reproduce the pre-incremental decision path: materialize the history
// window into an owning PriceSeries, fit a fresh Markov model, solve the
// expected up-time with the allocating free function — at EVERY decision.
// Decision results are bit-identical to the real policies (property-tested
// in tests/decision_path_test.cpp), so both sweeps compute the same runs.
// Every fit uses the engine's state bound, ZoneModelPool::kMaxStates, so
// the reference cannot drift from the engine.

Duration legacy_zone_uptime(const EngineView& view, std::size_t zone) {
  const PriceSeries hist = view.history(zone).materialize();
  const MarkovModel model =
      build_markov_model(hist.view(), batch::ZoneModelPool::kMaxStates);
  return expected_uptime(model, view.price(zone), view.bid());
}

class LegacyMarkovDalyPolicy final : public Policy {
 public:
  std::string name() const override { return "legacy-markov-daly"; }
  bool checkpoint_condition(const EngineView&) override { return false; }
  SimTime schedule_next_checkpoint(const EngineView& view) override {
    if (!view.any_zone_running()) return kNever;
    Duration total = 0;
    for (std::size_t zone : view.zone_ids()) {
      if (!view.zone_running(zone)) continue;
      total += legacy_zone_uptime(view, zone);
    }
    if (total <= 0) return kNever;
    return view.now() +
           daly_interval(view.experiment().costs.checkpoint, total);
  }
};

class LegacyThresholdPolicy final : public Policy {
 public:
  std::string name() const override { return "legacy-threshold"; }
  bool checkpoint_condition(const EngineView& view) override {
    for (std::size_t zone : view.zone_ids()) {
      if (!view.zone_running(zone) || !rising_edge(view, zone)) continue;
      // The old engine materialized the history to compute S_min.
      const PriceSeries hist = view.history(zone).materialize();
      const Money price_thresh = Money::from_micros(
          (hist.min_price().micros() + view.bid().micros()) / 2);
      if (view.price(zone) >= price_thresh) return true;
    }
    return false;
  }
  SimTime schedule_next_checkpoint(const EngineView& view) override {
    const SimTime since = view.leading_compute_since();
    if (since == kNever) return kNever;
    Duration best_uptime = 0;
    for (std::size_t zone : view.zone_ids()) {
      if (!view.zone_running(zone)) continue;
      best_uptime = std::max(best_uptime, legacy_zone_uptime(view, zone));
    }
    if (best_uptime <= 0) return kNever;
    return std::max(view.now() + 1, since + best_uptime);
  }
};

// --- Fig-4 style mini-sweep --------------------------------------------------

Experiment sweep_experiment(SimTime start) {
  Experiment e;
  e.app = AppModel{"bench-decision-path", hours(8.0), 1, 8};
  e.costs = CheckpointCosts{120, 120};
  e.start = start;
  e.deadline = hours(12.0);
  e.history_span = 2 * kDay;
  e.validate();
  return e;
}

/// Runs the sweep and returns the summed total cost in micro-dollars.
std::int64_t run_sweep(const SpotMarket& market,
                       const std::vector<SimTime>& starts,
                       const std::vector<Money>& bids, bool legacy) {
  std::int64_t total = 0;
  for (const SimTime start : starts) {
    for (const Money bid : bids) {
      for (int kind = 0; kind < 2; ++kind) {
        std::unique_ptr<Policy> policy;
        if (legacy) {
          policy = kind == 0
                       ? std::unique_ptr<Policy>(new LegacyThresholdPolicy())
                       : std::unique_ptr<Policy>(new LegacyMarkovDalyPolicy());
        } else {
          policy = make_policy(kind == 0 ? PolicyKind::kThreshold
                                         : PolicyKind::kMarkovDaly);
        }
        const Experiment experiment = sweep_experiment(start);
        FixedStrategy strategy(bid, {0}, std::move(policy));
        Engine engine(market, experiment, strategy);
        total += engine.run().total_cost.micros();
      }
    }
  }
  return total;
}

/// The same sweep through the batched lockstep engine: every
/// (start, bid, policy) combination is one lane of a single group sharing
/// the per-zone Markov models (core/batch).
std::int64_t run_sweep_batched(const SpotMarket& market,
                               const std::vector<SimTime>& starts,
                               const std::vector<Money>& bids) {
  const batch::BatchedSweepEngine batcher(market);
  std::vector<batch::BatchConfig> configs;
  configs.reserve(starts.size() * bids.size() * 2);
  for (const SimTime start : starts) {
    for (const Money bid : bids) {
      for (int kind = 0; kind < 2; ++kind) {
        batch::BatchConfig cfg;
        cfg.experiment = sweep_experiment(start);
        cfg.policy =
            kind == 0 ? PolicyKind::kThreshold : PolicyKind::kMarkovDaly;
        cfg.bid = bid;
        configs.push_back(std::move(cfg));
      }
    }
  }
  std::int64_t total = 0;
  for (const RunResult& r : batcher.run(configs))
    total += r.total_cost.micros();
  return total;
}

/// `spec` over every chunk of `scenario` straight through the batched
/// engine: run_fixed_sweep's lockstep groups of 16 audited lanes on the
/// default pool, without the sweep entry around them.
std::vector<RunResult> run_batched_core(const SpotMarket& market,
                                        const Scenario& scenario,
                                        const PolicyRunSpec& spec) {
  constexpr std::size_t kWidth = 16;
  const batch::BatchedSweepEngine batcher(market);
  const std::size_t n = scenario.num_experiments;
  std::vector<RunResult> results(n);
  parallel_for(0, (n + kWidth - 1) / kWidth, [&](std::size_t g) {
    const std::size_t lo = g * kWidth;
    const std::size_t hi = std::min(lo + kWidth, n);
    std::vector<batch::BatchConfig> configs;
    std::vector<std::unique_ptr<AuditObserver>> audits;
    for (std::size_t k = lo; k < hi; ++k) {
      const Experiment experiment = scenario.experiment(k);
      audits.push_back(std::make_unique<AuditObserver>(
          experiment, market.on_demand_rate()));
      configs.push_back(batch::BatchConfig{experiment, spec.policy, spec.bid,
                                           spec.zones, audits.back().get()});
    }
    const std::vector<RunResult> runs = batcher.run(configs);
    for (std::size_t k = lo; k < hi; ++k) results[k] = runs[k - lo];
  });
  return results;
}

}  // namespace
}  // namespace redspot

int main(int argc, char** argv) {
  using namespace redspot;

  bool quick = false;
  std::string out_path = "BENCH_decision_path.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_decision_path [--quick] [--out report.json]\n");
      return 2;
    }
  }

  benchreport::Report report;
  report.set("quick", quick ? 1 : 0);

  const std::size_t kWindow = 576;  // the 2-day / 5-min decision window
  const std::size_t kTraceLen = 1152;
  const PriceSeries alpha = alphabet_series(11, kTraceLen);
  const PriceSeries walk = walk_series(12, kTraceLen);
  const int reps = quick ? 5 : 9;

  // --- 1. history query: view vs materialized window ------------------------
  {
    const std::size_t positions = kTraceLen - kWindow;
    const auto window_bounds = [&](int i) {
      const std::size_t lo = static_cast<std::size_t>(i) % positions;
      const SimTime from =
          alpha.start() + static_cast<SimTime>(lo) * kPriceStep;
      return std::pair<SimTime, SimTime>(
          from, from + static_cast<SimTime>(kWindow) * kPriceStep);
    };
    const int iters = quick ? 400 : 2000;
    const double view_ns = median_ns(reps, iters, [&](int i) {
      const auto [from, to] = window_bounds(i);
      const PriceView v = alpha.view(from, to);
      g_sink += v.min_price().micros();
    });
    const double mat_ns = median_ns(reps, iters, [&](int i) {
      const auto [from, to] = window_bounds(i);
      const PriceSeries w = alpha.window(from, to);
      g_sink += w.min_price().micros();
    });
    // The view path must not touch the heap.
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 64; ++i) {
      const auto [from, to] = window_bounds(i);
      g_sink += alpha.view(from, to).min_price().micros();
    }
    g_count_allocs.store(false);
    report.set("history_view_ns", view_ns);
    report.set("history_materialize_ns", mat_ns);
    report.set("history_query_speedup", mat_ns / view_ns);
    report.set("history_view_allocs",
               static_cast<double>(g_alloc_count.load()));
  }

  // --- 2. markov refit: incremental slide vs from-scratch --------------------
  const Money kBid = Money::cents(81);
  const auto markov_pair = [&](const PriceSeries& s, const std::string& inc_key,
                               const std::string& scratch_key,
                               const std::string& speedup_key) {
    const std::size_t positions = s.size() - kWindow;
    const auto window_at = [&](int i) {
      const std::size_t lo = static_cast<std::size_t>(i) % positions;
      const SimTime from = s.start() + static_cast<SimTime>(lo) * kPriceStep;
      return s.view(from, from + static_cast<SimTime>(kWindow) * kPriceStep);
    };
    IncrementalMarkovModel inc(batch::ZoneModelPool::kMaxStates);
    const int inc_iters = quick ? 400 : 2000;
    const int scratch_iters = quick ? 60 : 300;
    // The two paths' reps interleave and the speedup is the median of the
    // per-rep ratios, so host drift between reps cancels.
    std::vector<double> inc_runs, scratch_runs, ratios;
    for (int r = 0; r < reps; ++r) {
      inc_runs.push_back(median_ns(1, inc_iters, [&](int i) {
        const PriceView w = window_at(i);
        inc.observe(w);
        g_sink += inc.expected_uptime(w.sample(w.size() - 1), kBid);
      }));
      scratch_runs.push_back(median_ns(1, scratch_iters, [&](int i) {
        const PriceView w = window_at(i);
        const MarkovModel m =
            build_markov_model(w, batch::ZoneModelPool::kMaxStates);
        g_sink += expected_uptime(m, w.sample(w.size() - 1), kBid);
      }));
      ratios.push_back(scratch_runs.back() / inc_runs.back());
    }
    report.set(inc_key, median_of(inc_runs));
    report.set(scratch_key, median_of(scratch_runs));
    report.set(speedup_key, median_of(ratios));
  };
  // Gated (floor 5x): unique-price mode, the common case on CC2-like traces.
  markov_pair(alpha, "markov_incremental_ns", "markov_scratch_ns",
              "markov_incremental_speedup");
  // Gated: quantile-binned mode refits on every slide, but from the level
  // counts it keeps — no re-sort, no expansion, no allocation — where a
  // fresh fit sorts the window first. The random walk has a new price at
  // nearly every sample; the paper's high-volatility month is the binned
  // traffic the sweeps and the ensemble actually see.
  markov_pair(walk, "markov_binned_incremental_ns", "markov_binned_scratch_ns",
              "markov_binned_speedup");
  const ZoneTraceSet paper = paper_traces(42);
  const std::size_t high_lo =
      paper.zone(0).index_of(window_start(VolatilityWindow::kHigh));
  const PriceSeries high(
      paper.zone(0).time_of(high_lo), kPriceStep,
      std::vector<Money>(paper.zone(0).samples().begin() +
                             static_cast<std::ptrdiff_t>(high_lo),
                         paper.zone(0).samples().begin() +
                             static_cast<std::ptrdiff_t>(high_lo + kTraceLen)));
  markov_pair(high, "markov_binned_paper_incremental_ns",
              "markov_binned_paper_scratch_ns", "markov_binned_paper_speedup");
  // Heap allocations of 64 warm binned slides (1-3 samples each) over each
  // binned series: the refit reuses the model's storage, so none.
  {
    std::uint64_t allocs = 0;
    for (const PriceSeries* s : {&walk, &high}) {
      const auto window_at = [&](std::size_t lo) {
        const SimTime from = s->start() + static_cast<SimTime>(lo) * kPriceStep;
        return s->view(from, from + static_cast<SimTime>(kWindow) * kPriceStep);
      };
      Rng rng(7);
      std::vector<std::size_t> starts(80);
      for (std::size_t k = 0, lo = 0; k < starts.size(); ++k) {
        starts[k] = lo += 1 + rng.uniform_index(3);
        std::vector<std::int64_t> prices;
        for (const Money m : window_at(lo).samples()) prices.push_back(m.micros());
        std::sort(prices.begin(), prices.end());
        REDSPOT_CHECK_MSG(
            std::unique(prices.begin(), prices.end()) - prices.begin() >
                static_cast<std::ptrdiff_t>(batch::ZoneModelPool::kMaxStates),
            "binned-slide window in unique mode");
      }
      IncrementalMarkovModel inc(batch::ZoneModelPool::kMaxStates);
      const auto decide = [&](std::size_t k) {
        const PriceView w = window_at(starts[k]);
        inc.observe(w);
        g_sink += inc.expected_uptime(w.sample(w.size() - 1), kBid);
      };
      for (std::size_t k = 0; k < 16; ++k) decide(k);  // warm
      g_alloc_count.store(0);
      g_count_allocs.store(true);
      for (std::size_t k = 16; k < starts.size(); ++k) decide(k);
      g_count_allocs.store(false);
      allocs += g_alloc_count.load();
      REDSPOT_CHECK(inc.full_rebuilds() == 1);
    }
    report.set("binned_slide_allocs", static_cast<double>(allocs));
  }

  // --- 3. adaptive re-plan: HistoryStats advance vs fresh --------------------
  {
    std::vector<PriceSeries> zones;
    for (std::uint64_t z = 0; z < 3; ++z)
      zones.push_back(alphabet_series(21 + z, kTraceLen));
    std::vector<std::string> names = {"z0", "z1", "z2"};
    const ZoneTraceSet traces(names, zones);
    const std::vector<Money> grid = {Money::cents(27),  Money::cents(40),
                                     Money::cents(81),  Money::dollars(1.20),
                                     Money::dollars(2.40)};
    // Adaptive reads every multi-zone subset at each re-plan.
    const std::vector<std::vector<std::size_t>> multi_zone = {
        {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}};
    const std::size_t positions = kTraceLen - kWindow;
    const auto bounds = [&](int i) {
      const std::size_t lo = static_cast<std::size_t>(i) % positions;
      const SimTime from =
          traces.start() + static_cast<SimTime>(lo) * kPriceStep;
      return std::pair<SimTime, SimTime>(
          from, from + static_cast<SimTime>(kWindow) * kPriceStep);
    };
    const auto read_stats = [&](const HistoryStats& hs) {
      double sum = hs.stats(0, 2).availability;
      for (const auto& subset : multi_zone)
        sum += hs.combined_availability(subset, 2) +
               hs.full_outage_rate(subset, 1);
      g_sink += static_cast<std::int64_t>(1e6 * sum);
    };
    const auto [f0, t0] = bounds(0);
    HistoryStats slid(traces, f0, t0, grid);
    const int adv_iters = quick ? 300 : 1500;
    const double adv_ns = median_ns(reps, adv_iters, [&](int i) {
      const auto [from, to] = bounds(i);
      slid.advance(traces, from, to);
      read_stats(slid);
    });
    const int fresh_iters = quick ? 60 : 300;
    const double fresh_ns = median_ns(reps, fresh_iters, [&](int i) {
      const auto [from, to] = bounds(i);
      HistoryStats fresh(traces, from, to, grid);
      read_stats(fresh);
    });
    report.set("adaptive_advance_ns", adv_ns);
    report.set("adaptive_fresh_ns", fresh_ns);
    report.set("adaptive_replan_speedup", fresh_ns / adv_ns);

    // Heap allocations per warm Adaptive decision (slide + argmin scan):
    // only the winner's zone list.
    EstimatorInputs in;
    in.remaining_compute = 10 * kHour;
    in.remaining_time = 20 * kHour;
    in.current_prices = {0.30, 0.45, 0.65};
    const auto decide = [&](int i) {
      const auto [from, to] = bounds(i);
      slid.advance(traces, from, to);
      g_sink += best_permutation(slid, AdaptiveStrategy::kMaxZones,
                                 AdaptiveStrategy::kCandidatePolicies, in)
                    .predicted_cost.micros();
    };
    decide(0);  // warm
    constexpr int kDecisions = 100;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 1; i <= kDecisions; ++i) decide(i);
    g_count_allocs.store(false);
    report.set("adaptive_decision_allocs",
               static_cast<double>(g_alloc_count.load()) / kDecisions);

    // Scan cost: best_permutation against a reference that prices every
    // permutation through estimate_permutation and takes the cheapest.
    // Reps interleave the two on the same slid window; the ratio of their
    // medians is gated.
    const auto reference_cost = [&] {
      Money best;
      bool found = false;
      std::vector<std::size_t> subset;
      for (std::uint64_t mask = 1; mask < 8; ++mask) {
        subset.clear();
        for (std::size_t z = 0; z < 3; ++z)
          if (mask & (std::uint64_t{1} << z)) subset.push_back(z);
        for (std::size_t b = 0; b < grid.size(); ++b) {
          for (PolicyKind policy : AdaptiveStrategy::kCandidatePolicies) {
            const Money cost =
                estimate_permutation(slid, b, subset, policy, in)
                    .predicted_cost;
            if (!found || cost < best) best = cost;
            found = true;
          }
        }
      }
      return best;
    };
    const auto scan_cost = [&] {
      return best_permutation(slid, AdaptiveStrategy::kMaxZones,
                              AdaptiveStrategy::kCandidatePolicies, in)
          .predicted_cost;
    };
    const int scan_reps = quick ? 15 : 41;
    const int scan_iters = quick ? 20 : 50;
    std::vector<double> reference_ns, scan_ns;
    for (int r = 0; r < scan_reps; ++r) {
      const auto [from, to] = bounds(kDecisions + 1 + 7 * r);
      slid.advance(traces, from, to);
      REDSPOT_CHECK_MSG(reference_cost() == scan_cost(),
                        "best_permutation and the reference scan disagree "
                        "at rep " << r);
      reference_ns.push_back(median_ns(1, scan_iters, [&](int) {
        g_sink += reference_cost().micros();
      }));
      scan_ns.push_back(median_ns(1, scan_iters, [&](int) {
        g_sink += scan_cost().micros();
      }));
    }
    std::sort(reference_ns.begin(), reference_ns.end());
    std::sort(scan_ns.begin(), scan_ns.end());
    report.set("adaptive_scan_speedup", reference_ns[reference_ns.size() / 2] /
                                            scan_ns[scan_ns.size() / 2]);
  }

  // --- 4. fig4 mini-sweep: real policies vs legacy materialize+rebuild ------
  {
    std::vector<PriceSeries> zones;
    zones.push_back(alphabet_series(31, kTraceLen, 0.25));
    std::vector<std::string> names = {"z0"};
    const SpotMarket market(ZoneTraceSet(names, zones), cc2_instance(),
                            QueueDelayModel(QueueDelayParams::fixed(0)));
    std::vector<SimTime> starts;
    const int num_starts = quick ? 2 : 4;
    for (int k = 0; k < num_starts; ++k)
      starts.push_back(2 * kDay + k * 5 * kHour);
    const std::vector<Money> bids = {Money::cents(27), Money::cents(81),
                                     Money::dollars(2.40)};

    const std::int64_t new_cost = run_sweep(market, starts, bids, false);
    const std::int64_t legacy_cost = run_sweep(market, starts, bids, true);

    const std::int64_t batched_cost = run_sweep_batched(market, starts, bids);

    REDSPOT_CHECK_MSG(new_cost == legacy_cost,
                      "legacy and incremental sweeps diverged: "
                          << legacy_cost << " vs " << new_cost);
    REDSPOT_CHECK_MSG(batched_cost == new_cost,
                      "batched and scalar sweeps diverged: "
                          << new_cost << " vs " << batched_cost);

    const int sweep_reps = quick ? 3 : 5;
    const double legacy_ms =
        median_ns(sweep_reps, 1, [&](int) {
          g_sink += run_sweep(market, starts, bids, true);
        }) /
        1e6;
    // Scalar and batched reps interleave, and the batched speedup is the
    // median of the per-rep ratios, so host drift between reps cancels:
    // each sweep takes well under a millisecond.
    const int paired_reps = quick ? 11 : 21;
    std::vector<double> scalar_runs, batched_runs, ratios;
    for (int r = 0; r < paired_reps; ++r) {
      scalar_runs.push_back(median_ns(1, 1, [&](int) {
        g_sink += run_sweep(market, starts, bids, false);
      }) / 1e6);
      batched_runs.push_back(median_ns(1, 1, [&](int) {
        g_sink += run_sweep_batched(market, starts, bids);
      }) / 1e6);
      ratios.push_back(scalar_runs.back() / batched_runs.back());
    }
    const double scalar_ms = median_of(scalar_runs);
    const double batched_ms = median_of(batched_runs);
    // The "new" end-to-end path is the batched lockstep engine — that is
    // what run_fixed_sweep dispatches to. Scalar-incremental stays
    // reported for the per-lane comparison.
    report.set("fig4_sweep_new_ms", batched_ms);
    report.set("fig4_sweep_legacy_ms", legacy_ms);
    report.set("fig4_sweep_speedup", legacy_ms / batched_ms);
    report.set("fig4_sweep_costs_match", 1);
    report.set("fig4_batched_ms", batched_ms);
    report.set("fig4_batched_scalar_ms", scalar_ms);
    report.set("fig4_batched_speedup", median_of(ratios));
    report.set("fig4_batched_lanes",
               static_cast<double>(starts.size() * bids.size() * 2));
  }

  // --- 5. steady-state allocation count --------------------------------------
  {
    const PriceSeries flat(0, kPriceStep,
                           std::vector<Money>(kWindow + 128, Money::cents(30)));
    const auto window_at = [&](std::size_t lo) {
      const SimTime from = static_cast<SimTime>(lo) * kPriceStep;
      return flat.view(from,
                       from + static_cast<SimTime>(kWindow) * kPriceStep);
    };
    IncrementalMarkovModel inc(batch::ZoneModelPool::kMaxStates);
    inc.observe(window_at(0));
    g_sink += inc.expected_uptime(Money::cents(30), kBid);
    inc.observe(window_at(1));  // warm the slide scratch
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (std::size_t lo = 2; lo < 102; ++lo) {
      const PriceView w = window_at(lo);
      inc.observe(w);
      g_sink += inc.expected_uptime(Money::cents(30), kBid);
      g_sink += w.min_price().micros();
    }
    g_count_allocs.store(false);
    report.set("steady_state_decision_allocs",
               static_cast<double>(g_alloc_count.load()));
  }

  // --- 6. sweep entry: run_fixed_sweep vs its batched core ------------------
  // Reps interleave the two paths so host drift hits both alike; the
  // median of the per-rep ratios is gated, so drift between reps cancels.
  {
    const SpotMarket market(paper_traces(42), cc2_instance(),
                            QueueDelayModel());
    const Scenario scenario{VolatilityWindow::kLow, 0.15, 300, 80};
    const PolicyRunSpec spec{PolicyKind::kPeriodic, Money::cents(81), {0}};
    const std::vector<RunResult> via_sweep =
        run_fixed_sweep(market, scenario, spec);
    const std::vector<RunResult> via_core =
        run_batched_core(market, scenario, spec);
    REDSPOT_CHECK(via_sweep.size() == via_core.size());
    for (std::size_t i = 0; i < via_sweep.size(); ++i)
      REDSPOT_CHECK_MSG(encode_sweep_chunk(0, i, via_sweep[i]) ==
                            encode_sweep_chunk(0, i, via_core[i]),
                        "run_fixed_sweep and its batched core diverged at "
                        "chunk " << i);

    const int entry_reps = 21;
    std::vector<double> ratios;
    for (int r = 0; r < entry_reps; ++r) {
      const double sweep_ns = median_ns(1, 1, [&](int) {
        g_sink += run_fixed_sweep(market, scenario, spec)[0].finish_time;
      });
      const double core_ns = median_ns(1, 1, [&](int) {
        g_sink += run_batched_core(market, scenario, spec)[0].finish_time;
      });
      ratios.push_back(sweep_ns / core_ns);
    }
    report.set("sweep_entry_overhead", median_of(ratios));
  }

  // --- Emit -------------------------------------------------------------------
  std::printf("%-32s %14s\n", "metric", "value");
  for (const auto& [name, value] : report.metrics)
    std::printf("%-32s %14.6g\n", name.c_str(), value);
  benchreport::write_report(report, out_path);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
