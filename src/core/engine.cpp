// Engine construction, the run loop, and completion — the orchestration
// core. Handler bodies live with the module they choreograph:
//   zone/engine_lifecycle.cpp          price ticks, instance lifecycle
//   engine_checkpointing.cpp           checkpoint start/settlement
//   billing_ledger/engine_cycle_hooks.cpp  cycle boundaries, pre-boundary
//   deadline/engine_switchover.cpp     deadline trigger, on-demand switch
//   engine_reconfigure.cpp             strategy consults, config changes
//   engine_view.cpp                    the EngineView read surface
#include "core/engine.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace redspot {

namespace {

/// Queue-delay draws get their own RNG stream id.
constexpr std::uint64_t kQueueStream = 0x51DE;

/// Tallies `fault` into `stats` under its kind (backoff included).
void record_fault(FaultStats& stats, const FaultEvent& fault) {
  switch (fault.kind) {
    case FaultEvent::Kind::kCkptWriteFailure:
      ++stats.ckpt_write_failures;
      break;
    case FaultEvent::Kind::kCkptCorruption:
      ++stats.ckpt_corruptions;
      break;
    case FaultEvent::Kind::kRestartFailure:
      ++stats.restart_failures;
      break;
    case FaultEvent::Kind::kRequestRejection:
      ++stats.request_rejections;
      stats.backoff_total += fault.backoff;
      break;
    case FaultEvent::Kind::kNoticeDropped:
      ++stats.notices_dropped;
      break;
    case FaultEvent::Kind::kNoticeLate:
      ++stats.notices_late;
      break;
  }
}

}  // namespace

Engine::Engine(const SpotMarket& market, Experiment experiment,
               Strategy& strategy, EngineOptions options)
    : market_(&market),
      experiment_(experiment),
      strategy_(&strategy),
      options_(options),
      queue_(experiment.start, *this),
      queue_rng_(experiment.seed, kQueueStream),
      injector_(options.faults, experiment.seed),
      monitor_(queue_,
               DeadlineParams{experiment.app.total_compute,
                              experiment.costs.checkpoint,
                              experiment.costs.restart,
                              experiment.deadline_time(),
                              options.regime.rebalance_notice}) {
  experiment_.validate();
  billing_.set_rules(options_.regime.billing);
  REDSPOT_CHECK_MSG(market.trace_start() <= experiment_.start,
                    "trace starts after the experiment");
  REDSPOT_CHECK_MSG(market.trace_end() >= experiment_.deadline_time(),
                    "trace ends before the experiment deadline");
  zones_.reserve(market.num_zones());
  for (std::size_t z = 0; z < market.num_zones(); ++z)
    zones_.emplace_back(z, static_cast<ZoneTransitionSink*>(this));
  billing_.set_sink([this](const LineItem& item) {
    for (EngineObserver* o : observers_) o->on_billing(item);
  });
}

void Engine::on_queue_event(const Event& event) {
  for (EngineObserver* o : observers_) o->on_event(event);
  const std::size_t zone = event.zone;
  switch (event.kind) {
    case EventKind::kPriceTick:
      on_price_tick();
      return;
    case EventKind::kInstanceReady:
      on_instance_ready(zone);
      return;
    case EventKind::kRestartDone:
      on_restart_done(zone);
      return;
    case EventKind::kCycleBoundary:
      on_cycle_boundary(zone);
      return;
    case EventKind::kPreBoundary:
      on_pre_boundary(zone);
      return;
    case EventKind::kZoneCompletion:
      on_zone_completion(zone);
      return;
    case EventKind::kDoom:
      on_doom(zone);
      return;
    case EventKind::kRebalanceNotice:
      on_rebalance_notice(zone);
      return;
    case EventKind::kScheduledCheckpoint:
      on_scheduled_checkpoint();
      return;
    case EventKind::kCheckpointDone:
      on_checkpoint_done();
      return;
    case EventKind::kEmergencyCheckpoint:
      on_emergency_checkpoint(zone);
      return;
    case EventKind::kDeadlineTrigger:
      on_deadline_trigger();
      return;
    case EventKind::kOnDemandFinish:
      finish(now(), true);
      return;
  }
}

void Engine::add_observer(EngineObserver* observer) {
  REDSPOT_CHECK_MSG(!ran_, "observers must attach before run()");
  REDSPOT_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

// ---------------------------------------------------------------------------
// Observer fan-out

void Engine::on_zone_transition(std::size_t zone, ZoneState from,
                                ZoneState to) {
  for (EngineObserver* o : observers_) o->on_transition(now(), zone, from, to);
}

void Engine::notify_fault(FaultEvent::Kind kind, std::size_t zone,
                          Duration backoff) {
  const FaultEvent fault{kind, now(), zone, backoff};
  record_fault(result_.faults, fault);
  for (EngineObserver* o : observers_) o->on_fault(fault);
}

void Engine::notify_commit(const CheckpointCommit& commit) {
  for (EngineObserver* o : observers_) o->on_checkpoint_commit(commit);
}

void Engine::notify_termination(std::size_t zone, TerminationCause cause) {
  for (EngineObserver* o : observers_) o->on_termination(now(), zone, cause);
}

// ---------------------------------------------------------------------------
// Run loop

RunResult Engine::run() {
  begin();
  while (!done_ && queue_.step()) {
  }
  return finalize();
}

void Engine::begin() {
  REDSPOT_CHECK_MSG(!ran_, "Engine::run() may only be called once");
  ran_ = true;

  apply_initial_config();
  tick_event_ =
      queue_.schedule_at(EventKind::kPriceTick, kNoZone, experiment_.start);
  reschedule_deadline_trigger();
}

void Engine::step_one() {
  REDSPOT_CHECK_MSG(!done_, "step_one() after completion");
  const bool dispatched = queue_.step();
  REDSPOT_CHECK_MSG(dispatched, "engine calendar drained before completion");
}

RunResult Engine::finalize() {
  REDSPOT_CHECK_MSG(done_, "engine calendar drained before completion");

  result_.total_cost = billing_.total();
  result_.spot_cost = billing_.spot_total();
  result_.on_demand_cost = billing_.on_demand_total();
  result_.spot_instance_seconds = billing_.spot_seconds();
  result_.committed_progress = store_.latest_progress();
  result_.checkpoint_log = store_.all();
  for (EngineObserver* o : observers_) o->on_finish(result_);
  return result_;
}

void Engine::apply_initial_config() {
  config_ = strategy_->initial(*this);
  REDSPOT_CHECK_MSG(!config_.zones.empty(), "strategy selected no zones");
  REDSPOT_CHECK(config_.policy != nullptr);
  REDSPOT_CHECK(config_.bid > Money());
  for (std::size_t z : config_.zones) {
    REDSPOT_CHECK_MSG(z < market_->num_zones(), "zone id out of range");
    REDSPOT_CHECK_MSG(std::count(config_.zones.begin(), config_.zones.end(),
                                 z) == 1,
                      "duplicate zone in config");
  }
}

void Engine::finish(SimTime at, bool completed) {
  done_ = true;
  result_.completed = completed;
  result_.finish_time = at;
  result_.met_deadline = completed && at <= experiment_.deadline_time();
  queue_.cancel(tick_event_);
  monitor_.disarm();
  queue_.cancel(scheduled_ckpt_event_);
  coord_.abort(queue_);
  for (ZoneMachine& z : zones_) z.cancel_events(queue_);
}

// ---------------------------------------------------------------------------

RunResult run_on_demand_baseline(const Experiment& experiment, Money rate) {
  return run_on_demand_baseline(experiment, rate, MarketRegime::classic());
}

RunResult run_on_demand_baseline(const Experiment& experiment, Money rate,
                                 const MarketRegime& regime) {
  experiment.validate();
  RunResult r;
  if (regime.billing.granularity == BillingGranularity::kPerSecond) {
    const Duration owed =
        std::max(experiment.app.total_compute, regime.billing.minimum);
    r.total_cost = prorate_hourly(rate, owed);
  } else {
    r.total_cost = rate * started_hours(experiment.app.total_compute);
  }
  r.on_demand_cost = r.total_cost;
  r.on_demand_seconds = experiment.app.total_compute;
  r.completed = true;
  r.finish_time = experiment.start + experiment.app.total_compute;
  r.met_deadline = true;
  r.switched_to_on_demand = true;
  return r;
}

void hash_engine_options(HashStream& h, const EngineOptions& o) {
  const FaultPlan& f = o.faults;
  h.f64(f.ckpt_write_failure_rate);
  h.f64(f.ckpt_corruption_rate);
  h.f64(f.restart_failure_rate);
  h.f64(f.request_rejection_rate);
  h.f64(f.notice_drop_rate);
  h.f64(f.notice_late_rate);
  h.i64(f.notice_max_lag);
  h.u64(f.store_outages.size());
  for (const StoreOutage& w : f.store_outages) {
    h.i64(w.start);
    h.i64(w.end);
  }
  h.i64(f.backoff.base);
  h.i64(f.backoff.cap);
  h.f64(f.backoff.jitter);
  // The regime is part of the options fingerprint, so every sweep journal
  // key, ensemble cache key, and fabric shard key distinguishes regimes
  // automatically.
  hash_regime(h, o.regime);
}

}  // namespace redspot
