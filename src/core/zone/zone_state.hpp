// Zone lifecycle states and the legal-transition relation.
//
// Extracted from the engine so the state machine is a first-class,
// unit-testable artifact. The diagram (superset of the paper's
// up/waiting/down):
//
//   kDown ──(S<=B at tick)──> kWaiting ──(checkpoint commit, or no zone
//   active)──> kQueued ──(queue delay)──> kRestarting ──(t_r, skipped when
//   starting from scratch)──> kRunning <──> kCheckpointing
//
//   any active state ──(S>B, completion, reconfiguration)──> kDown
//   kDown ──(Large-bid manual stop)──> kStopped ──(S<=L)──> kWaiting
//
// (The manual stop reaches kStopped via kDown: the boundary termination
// first tears the instance down, then the policy parks the zone.)
//
// Regimes with a termination notice (MarketRegime::rebalance_notice > 0,
// including the classic regime given an Appendix-A notice) add
// kRebalanceWarned: a kRunning zone whose kill was announced keeps
// computing there until the doom instant; kCheckpointing <-> kRebalanceWarned
// covers the emergency write and the compute resumed after it commits.
// Regimes without a notice never enter the state, keeping the 16-entry 2012
// table intact as a subset.
#pragma once

#include <cstddef>
#include <cstdint>

namespace redspot {

/// Application-visible zone states.
enum class ZoneState : std::uint8_t {
  kDown,           ///< no instance; price above bid or zone not eligible
  kWaiting,        ///< price at/below bid; waiting for a restart condition
  kQueued,         ///< spot request filed, waiting for fulfilment
  kRestarting,     ///< instance up, loading the latest checkpoint (t_r)
  kRunning,         ///< computing
  kCheckpointing,   ///< compute frozen while a checkpoint writes (t_c)
  kStopped,         ///< policy-suspended (Large-bid manual stop)
  kRebalanceWarned, ///< computing under a rebalance notice (kill announced)
};

inline constexpr std::size_t kNumZoneStates = 8;

const char* to_string(ZoneState s);

/// True for states that hold (or are acquiring) a spot instance.
constexpr bool is_active(ZoneState s) {
  return s == ZoneState::kQueued || s == ZoneState::kRestarting ||
         s == ZoneState::kRunning || s == ZoneState::kCheckpointing ||
         s == ZoneState::kRebalanceWarned;
}

/// True for states where compute progress accrues with the clock.
constexpr bool is_computing(ZoneState s) {
  return s == ZoneState::kRunning || s == ZoneState::kRebalanceWarned;
}

/// The legal-transition relation of the zone machine. Every transition the
/// engine performs is asserted against this table, so an illegal hop fails
/// at the instant it happens rather than corrupting a run result.
bool transition_allowed(ZoneState from, ZoneState to);

}  // namespace redspot
