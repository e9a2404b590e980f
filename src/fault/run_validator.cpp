#include "fault/run_validator.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace redspot {

namespace {

/// Accumulates violation lines with printf-free stream formatting.
class Violations {
 public:
  template <typename... Parts>
  void add(const Parts&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    lines_.push_back(os.str());
  }

  std::vector<std::string> take() { return std::move(lines_); }

 private:
  std::vector<std::string> lines_;
};

}  // namespace

RunValidator::RunValidator(Experiment experiment, Money on_demand_rate,
                           MarketRegime regime)
    : experiment_(experiment),
      on_demand_rate_(on_demand_rate),
      regime_(std::move(regime)) {
  experiment_.validate();
  REDSPOT_CHECK(on_demand_rate > Money());
}

std::vector<std::string> RunValidator::audit(const RunResult& r,
                                             AuditMode mode) const {
  Violations v;
  const SimTime start = experiment_.start;
  const SimTime deadline = experiment_.deadline_time();

  // --- outcome: the engine's whole contract is completion by deadline ----
  if (!r.completed) v.add("run did not complete");
  if (r.finish_time < start)
    v.add("finish_time ", format_time(r.finish_time),
          " precedes the experiment start");
  if (r.completed && r.finish_time > deadline)
    v.add("deadline missed: finished at ", format_time(r.finish_time),
          " vs deadline ", format_time(deadline));
  if (r.met_deadline != (r.completed && r.finish_time <= deadline))
    v.add("met_deadline flag inconsistent with finish_time");

  // --- counters ----------------------------------------------------------
  if (r.checkpoints_committed < 0 || r.restarts < 0 ||
      r.out_of_bid_terminations < 0 || r.full_outages < 0 ||
      r.config_changes < 0)
    v.add("negative accounting counter");
  if (r.spot_instance_seconds < 0 || r.on_demand_seconds < 0 ||
      r.queue_delay_total < 0)
    v.add("negative duration counter");
  if (r.faults.ckpt_write_failures < 0 || r.faults.ckpt_corruptions < 0 ||
      r.faults.restart_failures < 0 || r.faults.request_rejections < 0 ||
      r.faults.notices_dropped < 0 || r.faults.notices_late < 0 ||
      r.faults.backoff_total < 0)
    v.add("negative fault counter");

  // --- cost decomposition ------------------------------------------------
  if (r.total_cost != r.spot_cost + r.on_demand_cost)
    v.add("total_cost ", r.total_cost.str(), " != spot ", r.spot_cost.str(),
          " + on-demand ", r.on_demand_cost.str());
  if (r.spot_cost < Money() || r.on_demand_cost < Money())
    v.add("negative cost component");
  if (!r.switched_to_on_demand && r.on_demand_cost != Money())
    v.add("on-demand charge ", r.on_demand_cost.str(),
          " without an on-demand switch");
  // On-demand bills per started hour (classic) or prorated per second with
  // the minimum charge; a switch with all progress already committed
  // legitimately uses (and pays) nothing.
  if (regime_.billing.granularity == BillingGranularity::kPerSecond) {
    const Money expected =
        r.on_demand_seconds > 0
            ? prorate_hourly(on_demand_rate_,
                             std::max(r.on_demand_seconds,
                                      regime_.billing.minimum))
            : Money();
    if (r.on_demand_cost != expected)
      v.add("on-demand cost ", r.on_demand_cost.str(),
            " != per-second rate over ", r.on_demand_seconds, " s");
  } else {
    const std::int64_t od_hours = started_hours(r.on_demand_seconds);
    if (r.on_demand_cost != on_demand_rate_ * od_hours)
      v.add("on-demand cost ", r.on_demand_cost.str(), " != rate x ",
            od_hours, " started hours");
  }
  if (!r.switched_to_on_demand && r.on_demand_seconds != 0)
    v.add("on-demand seconds without an on-demand switch");

  // --- checkpoint log ----------------------------------------------------
  // Journal-replayed records carry the scalar summary but not the log
  // itself; re-deriving the counters from an (empty) log would flag every
  // replayed run, so the cross-checks below are full-audit only. The
  // range check on committed_progress still applies either way.
  if (mode == AuditMode::kReplay) {
    if (r.committed_progress < 0 ||
        r.committed_progress > experiment_.app.total_compute)
      v.add("committed progress ", format_duration(r.committed_progress),
            " outside [0, C]");
    return v.take();
  }
  Duration best_valid = 0;
  std::size_t valid = 0, invalidated = 0;
  SimTime prev_commit = start;
  for (const Checkpoint& c : r.checkpoint_log) {
    if (c.committed_at < prev_commit)
      v.add("checkpoint commit times go back in time at ",
            format_time(c.committed_at));
    prev_commit = c.committed_at;
    if (c.committed_at > r.finish_time)
      v.add("checkpoint committed after the run finished");
    if (c.progress < 0 || c.progress > experiment_.app.total_compute)
      v.add("checkpoint progress ", format_duration(c.progress),
            " outside [0, C]");
    if (c.valid) {
      ++valid;
      best_valid = std::max(best_valid, c.progress);
    } else {
      ++invalidated;
    }
  }
  if (static_cast<int>(valid) != r.checkpoints_committed)
    v.add("checkpoints_committed=", r.checkpoints_committed, " but ", valid,
          " valid entries in the log");
  if (static_cast<int>(invalidated) != r.faults.ckpt_corruptions)
    v.add("invalidated checkpoints=", invalidated,
          " != recorded corruptions=", r.faults.ckpt_corruptions);
  if (r.committed_progress != best_valid)
    v.add("committed_progress ", format_duration(r.committed_progress),
          " != best valid checkpoint ", format_duration(best_valid));

  return v.take();
}

void RunValidator::check(const RunResult& r, AuditMode mode) const {
  const std::vector<std::string> violations = audit(r, mode);
  if (violations.empty()) return;
  std::ostringstream os;
  os << violations.size() << " run invariant(s) violated:";
  for (const std::string& line : violations) os << "\n  - " << line;
  throw CheckFailure(os.str());
}

}  // namespace redspot
