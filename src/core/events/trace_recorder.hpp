// Structured per-event trace of one engine run.
//
// An EngineObserver that renders every hook into one stable text line,
// suitable for debugging, replay auditing, and golden-file comparison
// (event_trace_test pins one Fig-4 scenario per policy). The format is a
// contract — tools parse it — so changes to it are behaviour changes:
//
//   E <t> <event-kind> [z<zone>]          calendar event dispatched
//   T <t> z<zone> <from>-><to>            zone state transition
//   B <t> <item-kind> z<zone> <micros>    line item charged (micro-dollars)
//   C <t> z<zone> <outcome> <progress>    checkpoint write settled
//   F <t> <fault-kind> z<zone> [backoff=<s>]  injected fault took effect
//   K <t> bid=<micros> zones=<z>[,<z>...] policy=<name>  reconfiguration
//                                         applied (dynamic strategies only)
//   R <t> cost=<micros> completed=<0|1> met=<0|1>  run finished
//
// Terminations have no line of their own: the zone's T line into kDown
// marks the instant.
#pragma once

#include <string>
#include <vector>

#include "core/events/observer.hpp"

namespace redspot {

class EventTraceRecorder final : public EngineObserver {
 public:
  void on_event(const Event& event) override;
  void on_transition(SimTime t, std::size_t zone, ZoneState from,
                     ZoneState to) override;
  void on_billing(const LineItem& item) override;
  void on_checkpoint_commit(const CheckpointCommit& commit) override;
  void on_fault(const FaultEvent& fault) override;
  void on_config_change(SimTime t, const EngineConfig& config) override;
  void on_finish(const RunResult& result) override;

  const std::vector<std::string>& lines() const { return lines_; }

  /// All lines joined with '\n' (trailing newline included).
  std::string str() const;

 private:
  std::vector<std::string> lines_;
};

}  // namespace redspot
