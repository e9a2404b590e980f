#include "core/events/trace_recorder.hpp"

#include <cstdio>

#include "core/strategy.hpp"

namespace redspot {

namespace {

using LL = long long;

}  // namespace

void EventTraceRecorder::on_event(const Event& event) {
  char buf[96];
  if (event.zone == kNoZone) {
    std::snprintf(buf, sizeof(buf), "E %lld %s", static_cast<LL>(event.time),
                  to_string(event.kind));
  } else {
    std::snprintf(buf, sizeof(buf), "E %lld %s z%zu",
                  static_cast<LL>(event.time), to_string(event.kind),
                  event.zone);
  }
  lines_.emplace_back(buf);
}

void EventTraceRecorder::on_transition(SimTime t, std::size_t zone,
                                       ZoneState from, ZoneState to) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "T %lld z%zu %s->%s", static_cast<LL>(t),
                zone, to_string(from), to_string(to));
  lines_.emplace_back(buf);
}

void EventTraceRecorder::on_billing(const LineItem& item) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "B %lld %s z%zu %lld",
                static_cast<LL>(item.charged_at),
                to_string(item.kind).c_str(), item.zone,
                static_cast<LL>(item.amount.micros()));
  lines_.emplace_back(buf);
}

void EventTraceRecorder::on_checkpoint_commit(const CheckpointCommit& commit) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "C %lld z%zu %s %lld",
                static_cast<LL>(commit.at), commit.zone,
                to_string(commit.outcome),
                static_cast<LL>(commit.progress));
  lines_.emplace_back(buf);
}

void EventTraceRecorder::on_fault(const FaultEvent& fault) {
  char buf[96];
  if (fault.kind == FaultEvent::Kind::kRequestRejection) {
    std::snprintf(buf, sizeof(buf), "F %lld %s z%zu backoff=%lld",
                  static_cast<LL>(fault.at), to_string(fault.kind),
                  fault.zone, static_cast<LL>(fault.backoff));
  } else {
    std::snprintf(buf, sizeof(buf), "F %lld %s z%zu",
                  static_cast<LL>(fault.at), to_string(fault.kind),
                  fault.zone);
  }
  lines_.emplace_back(buf);
}

void EventTraceRecorder::on_config_change(SimTime t,
                                          const EngineConfig& config) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "K %lld bid=%lld zones=",
                static_cast<LL>(t), static_cast<LL>(config.bid.micros()));
  std::string line = buf;
  for (std::size_t i = 0; i < config.zones.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(config.zones[i]);
  }
  line += " policy=";
  line += config.policy->name();
  lines_.push_back(std::move(line));
}

void EventTraceRecorder::on_finish(const RunResult& result) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "R %lld cost=%lld completed=%d met=%d",
                static_cast<LL>(result.finish_time),
                static_cast<LL>(result.total_cost.micros()),
                result.completed ? 1 : 0, result.met_deadline ? 1 : 0);
  lines_.emplace_back(buf);
}

std::string EventTraceRecorder::str() const {
  std::string out;
  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace redspot
