// Typed-event-core microbenchmarks with a machine-readable report for the
// CI tolerance gate (same conventions as bench_decision_path; see
// tools/bench_report.hpp).
//
// Three suites pin the cost of the engine decomposition's calendar:
//
//   1. push/pop      — EventQueue schedule + dispatch throughput vs a
//                      plain std::priority_queue calendar of callbacks
//                      (defined below) on the identical tick chain. The
//                      typed queue carries EventKind + zone per entry,
//                      dispatches through its sink and supports cancel;
//                      its overhead over the bare reference is gated by a
//                      hard ratio ceiling.
//   2. cancel churn  — the engine's deadline-trigger pattern: schedule,
//                      cancel, reschedule under a live backlog; exercises
//                      lazy deletion + heap compaction. The backlog bound
//                      (<= 2x live entries after churn) is asserted.
//   3. observed run  — a full small engine run with zero observers vs one
//                      with an attached EventTraceRecorder; zero-observer
//                      runs must not pay for the hook layer.
//
// Usage: bench_event_core [--quick] [--out report.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "common/check.hpp"
#include "core/engine.hpp"
#include "core/events/event_queue.hpp"
#include "core/events/trace_recorder.hpp"
#include "core/strategy.hpp"
#include "market/spot_market.hpp"
#include "trace/zone_traces.hpp"

namespace redspot {

// External linkage defeats dead-code elimination of the measured work.
std::int64_t g_sink = 0;

namespace {

using Clock = std::chrono::steady_clock;

/// Median over `reps` timing runs of one call each, in ns.
template <typename F>
double median_run_ns(int reps, F&& fn) {
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// The in-run reference for the push/pop ratio: the textbook calendar —
/// a std::priority_queue of (time, seq) entries, FIFO among equal times,
/// each holding its std::function callback. No kinds, no cancel.
class ReferenceCalendar {
 public:
  SimTime now() const { return now_; }

  void schedule_at(SimTime t, std::function<void()> cb) {
    heap_.push(Entry{t, next_seq_++, std::move(cb)});
  }

  bool step() {
    if (heap_.empty()) return false;
    // top() is const; the entry is popped right after, so moving the
    // callback out of it is safe.
    Entry top = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    now_ = top.time;
    top.cb();
    return true;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> cb;
    // Earliest first, FIFO ties: "less" means later (max-heap).
    bool operator<(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry> heap_;
};

/// The shared calendar workload: a price-tick-style chain of `n`
/// dispatches, each scheduling the next one price step later. The typed
/// queue runs it through its sink, as the engine does.
class TickChain final : public EventSink {
 public:
  explicit TickChain(int n) : queue_(0, *this), remaining_(n) {}
  /// queue_ holds this object's address.
  TickChain(const TickChain&) = delete;
  TickChain& operator=(const TickChain&) = delete;

  void run() {
    queue_.schedule_at(EventKind::kPriceTick, kNoZone, 0);
    while (queue_.step()) {
    }
    REDSPOT_CHECK(remaining_ == 0);
  }

  void on_queue_event(const Event& event) override {
    g_sink += static_cast<std::int64_t>(event.time);
    if (--remaining_ > 0)
      queue_.schedule_at(EventKind::kPriceTick, kNoZone, event.time + 300);
  }

 private:
  EventQueue queue_;
  int remaining_;
};

/// The same chain on the reference calendar, one callback per entry.
void run_reference_chain(int n) {
  ReferenceCalendar reference;
  int remaining = n;
  std::function<void()> tick = [&] {
    g_sink += static_cast<std::int64_t>(reference.now());
    if (--remaining > 0) reference.schedule_at(reference.now() + 300, tick);
  };
  reference.schedule_at(SimTime{0}, tick);
  while (reference.step()) {
  }
  REDSPOT_CHECK(remaining == 0);
}

/// Dispatch target for the churn suite, whose entries never run.
struct NullSink final : EventSink {
  void on_queue_event(const Event&) override {}
};

/// One small end-to-end engine run (4 h of compute on a flat cheap price).
RunResult tiny_run(const SpotMarket& market, const Experiment& experiment,
                   EngineObserver* observer) {
  FixedStrategy strategy(Money::cents(81), {0},
                         make_policy(PolicyKind::kPeriodic));
  Engine engine(market, experiment, strategy, {});
  if (observer != nullptr) engine.add_observer(observer);
  return engine.run();
}

}  // namespace
}  // namespace redspot

int main(int argc, char** argv) {
  using namespace redspot;

  bool quick = false;
  std::string out_path = "BENCH_event_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_event_core [--quick] [--out report.json]\n");
      return 2;
    }
  }

  benchreport::Report report;
  report.schema = "redspot-event-core-v1";
  report.set("quick", quick ? 1 : 0);
  const int reps = quick ? 5 : 9;
  const int n = quick ? 20000 : 100000;

  // --- 1. push/pop: typed queue vs the reference calendar -------------------
  {
    const double typed_ns =
        median_run_ns(reps, [&] { TickChain(n).run(); });
    const double generic_ns =
        median_run_ns(reps, [&] { run_reference_chain(n); });
    report.set("queue_push_pop_ns", typed_ns / n);
    report.set("generic_push_pop_ns", generic_ns / n);
    report.set("event_core_overhead_ratio", typed_ns / generic_ns);
  }

  // --- 2. cancel churn (the deadline-trigger reschedule pattern) ------------
  {
    const int churn = quick ? 20000 : 100000;
    std::size_t backlog = 0;
    std::size_t live = 0;
    const double churn_ns = median_run_ns(reps, [&] {
      NullSink sink;
      EventQueue queue(0, sink);
      // A standing backlog of zone events keeps the heap non-trivial.
      std::vector<EventId> standing;
      for (int i = 0; i < 256; ++i) {
        standing.push_back(queue.schedule_at(EventKind::kCycleBoundary,
                                             static_cast<std::size_t>(i % 3),
                                             1000000 + i));
      }
      EventId trigger = 0;
      for (int i = 0; i < churn; ++i) {
        queue.cancel(trigger);
        trigger = queue.schedule_at(EventKind::kDeadlineTrigger, kNoZone,
                                    2000000 + i);
      }
      backlog = queue.backlog();
      live = queue.pending_count();
      for (EventId& id : standing) queue.cancel(id);
      queue.cancel(trigger);
    });
    REDSPOT_CHECK_MSG(backlog <= 2 * live,
                      "lazy deletion let the backlog grow past 2x live");
    report.set("queue_cancel_churn_ns", churn_ns / churn);
    report.set("queue_backlog_after_churn", static_cast<double>(backlog));
  }

  // --- 3. engine run: zero observers vs an attached trace recorder ----------
  {
    Experiment e;
    e.app = AppModel{"bench-app", 4 * kHour, 1, 8};
    e.costs = CheckpointCosts{300, 300};
    e.start = 0;
    e.deadline = 6 * kHour;
    e.history_span = 2 * kHour;
    e.validate();
    std::vector<PriceSeries> series;
    series.push_back(PriceSeries(
        0, kPriceStep, std::vector<Money>(96, Money::cents(30))));
    const SpotMarket market(
        ZoneTraceSet({"bench-zone"}, std::move(series)), cc2_instance(),
        QueueDelayModel(QueueDelayParams::fixed(0)));

    const double bare_ns = median_run_ns(reps, [&] {
      g_sink += tiny_run(market, e, nullptr).total_cost.micros();
    });
    const double observed_ns = median_run_ns(reps, [&] {
      EventTraceRecorder trace;  // fresh per rep: lines must not accumulate
      g_sink += tiny_run(market, e, &trace).total_cost.micros();
    });
    report.set("engine_run_ms", bare_ns / 1e6);
    report.set("engine_observed_run_ms", observed_ns / 1e6);
    report.set("observer_overhead_ratio", observed_ns / bare_ns);
  }

  benchreport::write_report(report, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  for (const auto& [name, value] : report.metrics) {
    std::printf("  %-28s %.4g\n", name.c_str(), value);
  }
  return 0;
}
