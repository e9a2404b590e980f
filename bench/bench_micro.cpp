// Micro-benchmarks (google-benchmark): the hot paths of the simulator —
// event calendar throughput, one full engine run, the Markov uptime solve,
// Daly's interval, the synthetic generator (a whole month, and a span that
// is all skip pass) and the VAR fit.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "ckpt/daly.hpp"
#include "common/parallel.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/engine.hpp"
#include "core/events/event_queue.hpp"
#include "exp/scenario.hpp"
#include "market/spot_market.hpp"
#include "markov/model.hpp"
#include "markov/uptime.hpp"
#include "trace/calendar.hpp"
#include "trace/synthetic.hpp"
#include "trace/var.hpp"

namespace {

using namespace redspot;

const SpotMarket& shared_market() {
  static const SpotMarket market(paper_traces(42), cc2_instance(),
                                 QueueDelayModel());
  return market;
}

/// Counts dispatches: the calendar benches' stand-in for the engine.
struct CountingSink final : EventSink {
  int fired = 0;
  void on_queue_event(const Event&) override { ++fired; }
};

void BM_EventCalendar(benchmark::State& state) {
  for (auto _ : state) {
    CountingSink sink;
    EventQueue queue(0, sink);
    for (int i = 0; i < 1000; ++i)
      queue.schedule_at(EventKind::kPriceTick, kNoZone, i);
    while (queue.step()) {
    }
    benchmark::DoNotOptimize(sink.fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventCalendar);

void BM_EventCalendarCancelChurn(benchmark::State& state) {
  // The engine's dominant calendar pattern: schedule a speculative event
  // (deadline trigger, doom timer), cancel it, schedule the next. Without
  // heap compaction the backlog grows with every cancel; with it the heap
  // stays near the live-event count.
  for (auto _ : state) {
    CountingSink sink;
    EventQueue queue(0, sink);
    for (int i = 0; i < 100; ++i)
      queue.schedule_at(EventKind::kCycleBoundary, 0, 1'000'000 + i);
    for (int i = 0; i < 1000; ++i) {
      EventId id = queue.schedule_at(EventKind::kDeadlineTrigger, kNoZone,
                                     2'000'000 + i);
      queue.cancel(id);
    }
    while (queue.step()) {
    }
    benchmark::DoNotOptimize(sink.fired);
    benchmark::DoNotOptimize(queue.backlog());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventCalendarCancelChurn);

void BM_EngineRunPeriodic(benchmark::State& state) {
  const SpotMarket& market = shared_market();
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 80};
  const Experiment experiment = scenario.experiment(5);
  for (auto _ : state) {
    FixedStrategy strategy(Money::cents(81), {0, 1, 2},
                           make_policy(PolicyKind::kPeriodic));
    Engine engine(market, experiment, strategy);
    benchmark::DoNotOptimize(engine.run().total_cost);
  }
}
BENCHMARK(BM_EngineRunPeriodic);

void BM_EngineRunAdaptive(benchmark::State& state) {
  const SpotMarket& market = shared_market();
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 80};
  const Experiment experiment = scenario.experiment(5);
  for (auto _ : state) {
    AdaptiveStrategy strategy;
    Engine engine(market, experiment, strategy);
    benchmark::DoNotOptimize(engine.run().total_cost);
  }
}
BENCHMARK(BM_EngineRunAdaptive);

void BM_MarkovUptime(benchmark::State& state) {
  const ZoneTraceSet& traces = shared_market().traces();
  const SimTime t = month_start(kHighVolatilityMonth) + 5 * kDay;
  const PriceSeries window = traces.zone(1).window(t - 2 * kDay, t);
  const MarkovModel model = build_markov_model(window);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        expected_uptime(model, window.sample(window.size() - 1),
                        Money::cents(81)));
  }
}
BENCHMARK(BM_MarkovUptime);

void BM_MarkovModelBuild(benchmark::State& state) {
  const ZoneTraceSet& traces = shared_market().traces();
  const SimTime t = month_start(kHighVolatilityMonth) + 5 * kDay;
  const PriceSeries window = traces.zone(1).window(t - 2 * kDay, t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_markov_model(window).num_states());
  }
}
BENCHMARK(BM_MarkovModelBuild);

void BM_DalyInterval(benchmark::State& state) {
  Duration mtbf = kHour;
  for (auto _ : state) {
    benchmark::DoNotOptimize(daly_interval(300, mtbf));
    mtbf = (mtbf % kDay) + kMinute;
  }
}
BENCHMARK(BM_DalyInterval);

void BM_SyntheticMonth(benchmark::State& state) {
  SyntheticTraceSpec spec = paper_trace_spec(7);
  spec.params.resize(1);  // one month
  spec.forced_spikes.clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_traces(spec).num_zones());
    ++spec.seed;
  }
}
BENCHMARK(BM_SyntheticMonth);

// The last step of the trimmed high window, alone: every earlier step of
// each zone goes through the skip pass (ZoneCursor::skip_to), bar the few
// the exact pass redoes from the zone's last regime switch.
void BM_SyntheticSkip(benchmark::State& state) {
  const SimTime end = window_end(VolatilityWindow::kHigh);
  SyntheticTraceSpec spec = trimmed_spec(paper_trace_spec(7), end);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generate_traces(spec, end - kPriceStep, end).num_zones());
    ++spec.seed;
  }
}
BENCHMARK(BM_SyntheticSkip);

// --- parallel_for dispatch cost --------------------------------------------
// parallel_for claims ~4 chunks per worker off one atomic counter; the two
// baselines below are the dispatch schemes it replaced. With a tiny body the
// difference is pure scheduling overhead: per-index submit pays one
// std::function allocation + queue round-trip per iteration, per-index
// claiming pays one contended fetch_add per iteration.

ThreadPool& bench_pool() {
  static ThreadPool pool(4);
  return pool;
}

constexpr std::size_t kParallelForN = 1 << 14;

void BM_ParallelForChunked(benchmark::State& state) {
  ThreadPool& pool = bench_pool();
  std::vector<std::uint64_t> out(kParallelForN);
  for (auto _ : state) {
    parallel_for(pool, 0, kParallelForN,
                 [&out](std::size_t i) { out[i] = i * 2654435761u; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kParallelForN));
}
BENCHMARK(BM_ParallelForChunked);

void BM_ParallelForPerIndexSubmit(benchmark::State& state) {
  ThreadPool& pool = bench_pool();
  std::vector<std::uint64_t> out(kParallelForN);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kParallelForN; ++i)
      pool.submit([&out, i] { out[i] = i * 2654435761u; });
    pool.wait_idle();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kParallelForN));
}
BENCHMARK(BM_ParallelForPerIndexSubmit);

void BM_ParallelForPerIndexClaim(benchmark::State& state) {
  ThreadPool& pool = bench_pool();
  std::vector<std::uint64_t> out(kParallelForN);
  for (auto _ : state) {
    std::atomic<std::size_t> next{0};
    for (std::size_t t = 0; t < pool.size(); ++t) {
      pool.submit([&out, &next] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < kParallelForN;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          out[i] = i * 2654435761u;
        }
      });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kParallelForN));
}
BENCHMARK(BM_ParallelForPerIndexClaim);

void BM_VarFitMonth(benchmark::State& state) {
  const ZoneTraceSet month = shared_market().traces().window(
      month_start(kHighVolatilityMonth), month_end(kHighVolatilityMonth));
  const auto series = to_series(month);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_var(series, 4).aic);
  }
}
BENCHMARK(BM_VarFitMonth);

}  // namespace

BENCHMARK_MAIN();
