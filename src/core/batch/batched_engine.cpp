#include "core/batch/batched_engine.hpp"

#include <algorithm>
#include <memory>

#include "core/batch/model_pool.hpp"
#include "core/strategy.hpp"

namespace redspot::batch {

BatchedSweepEngine::BatchedSweepEngine(const SpotMarket& market,
                                       EngineOptions options)
    : market_(&market), options_(options) {}

std::vector<RunResult> BatchedSweepEngine::run(
    std::span<const BatchConfig> configs) const {
  const std::size_t n = configs.size();
  std::vector<RunResult> results(n);
  if (n == 0) return results;

  ZoneModelPool pool;

  std::vector<std::unique_ptr<FixedStrategy>> strategies;
  std::vector<std::unique_ptr<Engine>> engines;
  strategies.reserve(n);
  engines.reserve(n);
  for (const BatchConfig& c : configs) {
    strategies.push_back(std::make_unique<FixedStrategy>(
        c.bid, c.zones, make_policy(c.policy)));
    engines.push_back(std::make_unique<Engine>(*market_, c.experiment,
                                               *strategies.back(), options_));
    engines.back()->join_group(pool);
    if (c.observer != nullptr) engines.back()->add_observer(c.observer);
  }

  // next_time[i]: lane i's next calendar event, kNever once it finished.
  std::vector<SimTime> next_time(n);
  SimTime t = kNever;
  for (std::size_t i = 0; i < n; ++i) {
    engines[i]->begin();
    next_time[i] = engines[i]->next_event_time();
    t = std::min(t, next_time[i]);
  }

  // Lockstep, one *instant* at a time: every lane with an event at the
  // group's earliest time t drains its whole same-instant burst, in lane
  // order — exactly the dispatch order a per-event argmin with the
  // lowest-index tie rule produces (lane i's burst at t all precedes lane
  // i+1's), but paying one linear pass per distinct instant instead of
  // one O(lanes) scan per dispatched event. Engines never schedule into
  // the past, so time only moves forward and the shared zone models slide
  // forward once per tick for the whole group. The pass folds the next
  // instant's min into the same loop: every lane it leaves behind is
  // strictly past t.
  while (t != kNever) {
    SimTime next_t = kNever;
    for (std::size_t i = 0; i < n; ++i) {
      SimTime ti = next_time[i];
      if (ti == t) {
        Engine& engine = *engines[i];
        do {
          engine.step_one();
          ti = engine.finished() ? kNever : engine.next_event_time();
        } while (ti == t);
        next_time[i] = ti;
      }
      next_t = ti < next_t ? ti : next_t;
    }
    t = next_t;
  }

  for (std::size_t i = 0; i < n; ++i) results[i] = engines[i]->finalize();
  return results;
}

}  // namespace redspot::batch
