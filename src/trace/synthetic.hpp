// Synthetic spot-price generator.
//
// The paper evaluates against 12+ months of real CC2 spot-price history
// (Dec 2012 - Jan 2014, three US-East zones, 5-minute sampling). That data
// is not redistributable, so we substitute a regime-switching generator
// calibrated to every statistic the paper publishes about the data:
//
//   * low-volatility window (March 2013): mean ~ $0.30, variance < 0.01,
//     long sojourns at the $0.27 floor (the paper's reference price);
//   * high-volatility window (January 2013): zone means $0.70-$1.12,
//     variance up to ~2.02, excursions approaching $3.00;
//   * occasional spikes up to ~$3.00 in any month (the reason the paper's
//     bid grid tops out at $3.07);
//   * one forced multi-hour spike to $20.02 on March 13-14, 2013 (the event
//     behind Large-bid's $183.75 worst case in Figure 6);
//   * cross-zone price movements that are nearly independent, with only a
//     weak common component (Section 3.1's VAR finding).
//
// Model: per zone, a two-regime (calm/high) semi-Markov chain with
// exponential dwell times; within a regime the price follows a mean-
// reverting AR(1) around the regime level, clamped to [floor, cap] and
// quantized to $0.001. Poisson spike overlays sit on top. Everything is
// deterministic in (seed, zone, month).
#pragma once

#include <cstdint>
#include <vector>

#include "common/money.hpp"
#include "common/random.hpp"
#include "common/time.hpp"
#include "trace/zone_traces.hpp"

namespace redspot {

/// One price regime: mean-reverting AR(1) around `level`.
///
/// Real spot prices are piecewise-constant: they jump a handful of times
/// per hour at most and hold in between. The AR(1) state advances every
/// step, but a new price is *published* only with probability
/// `change_prob` per 5-minute step (regime switches and spikes always
/// publish). This matters to the Rising-Edge policy, which reacts to every
/// published upward movement.
struct RegimeParams {
  double level = 0.30;          ///< long-run price level ($)
  double innovation_sd = 0.02;  ///< per-step innovation std-dev ($)
  double reversion = 0.8;       ///< AR(1) coefficient in [0, 1)
  double change_prob = 0.12;    ///< P(publish a new price) per step
};

/// Poisson spike overlay (rate may be zero to disable).
struct SpikeParams {
  double per_day_rate = 0.0;          ///< expected spikes per day
  double mag_lo = 1.5;                ///< spike price range ($)
  double mag_hi = 3.0;
  Duration mean_duration = 30 * kMinute;
};

/// Generator parameters for one (zone, month) cell.
struct ZoneMonthParams {
  RegimeParams calm;
  RegimeParams high;
  /// Long-run fraction of time in the high regime; 0 disables it.
  double high_fraction = 0.0;
  /// Expected dwell in the calm regime before switching high.
  Duration calm_mean_dwell = 8 * kHour;
  SpikeParams spikes;
};

/// A deterministic spike injected verbatim (bypasses the cap).
struct ForcedSpike {
  std::size_t zone = 0;
  SimTime start = 0;
  Duration duration = 0;
  Money price;
};

/// Complete specification of a synthetic trace set.
struct SyntheticTraceSpec {
  std::uint64_t seed = 42;
  std::size_t num_zones = 3;
  Duration step = kPriceStep;
  /// Lowest possible price; the paper's reference floor is $0.27.
  Money floor = Money::cents(27);
  /// Cap for the stochastic process (forced spikes may exceed it). The
  /// paper observes organic spikes up to ~$3.00.
  Money cap = Money::dollars(3.00);
  /// Weight of a shared cross-zone innovation component in [0, 1); small
  /// values reproduce the paper's "nearly independent zones" finding.
  double cross_coupling = 0.05;
  /// params[month][zone]; month count defines the generated span starting
  /// at the trace epoch.
  std::vector<std::vector<ZoneMonthParams>> params;
  std::vector<ForcedSpike> forced_spikes;
};

/// Generates the trace set described by `spec`. Each zone's samples are
/// generated, then its forced spikes are written over them in place, and
/// only then is its PriceSeries built: the trace set is never copied.
/// Synthetic.TracesArePinned pins the output bit for bit.
ZoneTraceSet generate_traces(const SyntheticTraceSpec& spec);

/// The span [from, until) of generate_traces(spec), widened outward to the
/// sampling grid and clamped to the spec's span: bit for bit the same
/// samples as that slice of the full trace, at a fraction of its cost.
///
/// Why it is exact: which draws a step makes depends only on regime and
/// spike state, never on a price. So before the span each zone runs a skip
/// loop that makes exactly the same draws but computes no price: it reads
/// the spike-start Bernoulli and, on a regime switch or a spike start, the
/// dwell and spike price; the normal's uniforms and the publish Bernoulli
/// it only steps past. A price depends on earlier draws only through the
/// AR(1) deviation, which every regime switch resets, so the exact
/// computation restarts at the zone's last regime switch before the span
/// (or at step 0). The shared stream is skipped up to the earliest such
/// restart, generation stops at `until`, and forced spikes are clipped to
/// the span.
ZoneTraceSet generate_traces(const SyntheticTraceSpec& spec, SimTime from,
                             SimTime until);

/// Returns `spec` truncated to the fewest whole months covering
/// [0, keep_until): later months' parameters and forced spikes starting at
/// or after the kept span are dropped. The generator's per-zone streams
/// consume randomness strictly in step order, so the trimmed spec produces
/// bit-identical prices over the kept prefix — the ensemble layer trims to
/// the evaluation window, then synthesizes each replication's span of it.
SyntheticTraceSpec trimmed_spec(SyntheticTraceSpec spec, SimTime keep_until);

/// The calibrated 14-month, 3-zone specification reproducing the paper's
/// published data statistics (see file comment). `seed` varies the sample
/// path, not the calibration.
SyntheticTraceSpec paper_trace_spec(std::uint64_t seed = 42);

/// Convenience: generate_traces(paper_trace_spec(seed)).
ZoneTraceSet paper_traces(std::uint64_t seed = 42);

}  // namespace redspot
