#include "trace/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "trace/calendar.hpp"

namespace redspot {

namespace {

/// Quantizes a raw dollar value to EC2's $0.001 price grid.
Money quantize(double dollars) {
  return Money::from_micros(std::llround(dollars * 1000.0) * 1000);
}

/// Per-zone generator state carried across months.
struct ZoneState {
  bool in_high = false;
  SimTime regime_until = 0;
  double deviation = 0.0;  // AR(1) deviation from the regime level
  SimTime spike_until = 0;
  double spike_price = 0.0;
  Money published = Money::from_micros(-1);  // last published; <0 = none
  bool was_spiking = false;
};

/// Expected dwell in the high regime so that its long-run fraction is f.
Duration high_mean_dwell(const ZoneMonthParams& p) {
  REDSPOT_CHECK(p.high_fraction >= 0.0 && p.high_fraction < 1.0);
  if (p.high_fraction == 0.0) return 0;
  const double ratio = p.high_fraction / (1.0 - p.high_fraction);
  return std::max<Duration>(
      kPriceStep, static_cast<Duration>(
                      static_cast<double>(p.calm_mean_dwell) * ratio));
}

/// Inline, so that a caller's local Rng can stay in registers.
inline Duration sample_dwell(Rng& rng, Duration mean) {
  if (mean <= 0) return kPriceStep;
  const double d = rng.exponential(1.0 / static_cast<double>(mean));
  return std::max<Duration>(kPriceStep, static_cast<Duration>(d));
}

/// What every zone's step reads and no step changes.
struct StepContext {
  const SyntheticTraceSpec& spec;
  std::vector<SimTime> month_ends;  // exclusive end of each month
  double floor;
  double cap;

  /// Per-step probability that a Poisson spike starts in a (zone, month).
  double spike_start_prob(const ZoneMonthParams& p) const {
    return p.spikes.per_day_rate * static_cast<double>(spec.step) /
           static_cast<double>(kDay);
  }
};

/// One zone's generator, standing before step `next`: its private stream,
/// its ZoneState and its month. A copy is a point to restart from.
struct ZoneCursor {
  std::size_t zone;
  Rng rng;
  ZoneState st;
  std::size_t next = 0;
  std::size_t month = 0;
  double p_start;

  ZoneCursor(const StepContext& ctx, std::size_t z)
      : zone(z),
        rng(ctx.spec.seed, /*stream=*/1 + z),
        p_start(ctx.spike_start_prob(ctx.spec.params[0][z])) {
    st.regime_until = sample_dwell(rng, ctx.spec.params[0][z].calm_mean_dwell);
  }

  /// Runs step `next` and returns the price in effect after it (`shared`
  /// is the step's common innovation).
  Money advance(const StepContext& ctx, double shared) {
    const SyntheticTraceSpec& spec = ctx.spec;
    const SimTime t = static_cast<SimTime>(next) * spec.step;
    while (month + 1 < ctx.month_ends.size() && t >= ctx.month_ends[month]) {
      ++month;
      p_start = ctx.spike_start_prob(spec.params[month][zone]);
    }
    const ZoneMonthParams& p = spec.params[month][zone];

    // Regime transitions (semi-Markov with exponential dwells). A month
    // with high_fraction == 0 forces the calm regime. A switch resets the
    // AR(1) deviation, so an exact pass started from the cursor as it
    // stands here reproduces every later price.
    const bool regime_switched =
        p.high_fraction == 0.0 ? st.in_high : t >= st.regime_until;
    if (regime_switched) {
      st.in_high = !st.in_high;
      st.deviation = 0.0;
      st.regime_until =
          t + sample_dwell(rng, st.in_high ? high_mean_dwell(p)
                                           : p.calm_mean_dwell);
    }

    const RegimeParams& regime = st.in_high ? p.high : p.calm;
    const double own = rng.normal();
    const double innov =
        (1.0 - spec.cross_coupling) * own + spec.cross_coupling * shared;
    st.deviation =
        regime.reversion * st.deviation + regime.innovation_sd * innov;

    // Poisson spike overlay.
    if (t >= st.spike_until && p.spikes.per_day_rate > 0.0) {
      if (rng.bernoulli(p_start)) {
        st.spike_price = rng.uniform(p.spikes.mag_lo, p.spikes.mag_hi);
        st.spike_until = t + sample_dwell(rng, p.spikes.mean_duration);
      }
    }
    const bool spiking = t < st.spike_until;

    // Publish a new price only on regime/spike boundaries or with the
    // regime's change probability; otherwise the market holds the last
    // published price (spot prices are piecewise-constant in reality).
    // Which draws a step makes depends on regime and spike state only,
    // never on a price: that is what lets skip_to keep the stream in place.
    const bool must_publish = st.published < Money() || regime_switched ||
                              spiking != st.was_spiking;
    if (must_publish || rng.bernoulli(regime.change_prob)) {
      const double latent = regime.level + st.deviation;
      const double price = spiking ? std::max(latent, st.spike_price) : latent;
      st.published = quantize(std::clamp(price, ctx.floor, ctx.cap));
    }
    st.was_spiking = spiking;
    ++next;
    return st.published;
  }

  /// Walks the cursor up to step `first`, making exactly the draws that
  /// advance() makes, in the same order, but computing no price. Before
  /// each step that switches regime it copies itself, as it stands, into
  /// `restart`.
  ///
  /// The stream, the state and the month live in locals here so that they
  /// stay in registers; a month's parameters are read once per month. Only
  /// the draws that decide state are examined: the spike-start Bernoulli,
  /// and the dwell and spike price drawn on a switch or a spike start. The
  /// normal's two uniforms (keeping its zero-uniform rejection) and the
  /// publish Bernoulli are only stepped past: their values decide no draw.
  void skip_to(const StepContext& ctx, std::size_t first,
               ZoneCursor& restart) {
    const Duration step = ctx.spec.step;
    const std::size_t months = ctx.month_ends.size();
    Rng r = rng;
    ZoneState s = st;
    std::size_t i = next;
    std::size_t m = month;
    double start_prob = p_start;
    SimTime t = static_cast<SimTime>(i) * step;
    const auto store = [&](ZoneCursor& to) {
      to.rng = r;
      to.st = s;
      to.next = i;
      to.month = m;
      to.p_start = start_prob;
    };
    while (i < first) {
      while (m + 1 < months && t >= ctx.month_ends[m]) {
        ++m;
        start_prob = ctx.spike_start_prob(ctx.spec.params[m][zone]);
      }
      const ZoneMonthParams& p = ctx.spec.params[m][zone];
      const SimTime month_end = m + 1 < months ? ctx.month_ends[m] : kNever;
      const bool calm_only = p.high_fraction == 0.0;
      const bool spikes = p.spikes.per_day_rate > 0.0;
      for (; i < first && t < month_end; ++i, t += step) {
        const bool switched = calm_only ? s.in_high : t >= s.regime_until;
        if (switched) {
          store(restart);
          s.in_high = !s.in_high;
          s.deviation = 0.0;
          s.regime_until =
              t + sample_dwell(r, s.in_high ? high_mean_dwell(p)
                                            : p.calm_mean_dwell);
        }
        r.skip_normal();
        if (spikes && t >= s.spike_until && r.bernoulli(start_prob)) {
          s.spike_price = r.uniform(p.spikes.mag_lo, p.spikes.mag_hi);
          s.spike_until = t + sample_dwell(r, p.spikes.mean_duration);
        }
        const bool spiking = t < s.spike_until;
        // The publish Bernoulli's draw, when advance() makes it. Only the
        // sign of a skipped price is ever read: the exact pass restarts at
        // a regime switch, which publishes.
        if (s.published >= Money() && !switched && spiking == s.was_spiking)
          r.next_u64();
        s.published = Money();
        s.was_spiking = spiking;
      }
    }
    store(*this);
  }
};

}  // namespace

ZoneTraceSet generate_traces(const SyntheticTraceSpec& spec) {
  return generate_traces(spec, 0, kNever);
}

ZoneTraceSet generate_traces(const SyntheticTraceSpec& spec, SimTime from,
                             SimTime until) {
  REDSPOT_CHECK(spec.num_zones > 0);
  REDSPOT_CHECK(!spec.params.empty());
  for (const auto& month : spec.params)
    REDSPOT_CHECK_MSG(month.size() == spec.num_zones,
                      "params row does not match num_zones");
  REDSPOT_CHECK(spec.floor <= spec.cap);

  // Months beyond the built-in calendar reuse 30-day lengths; the paper span
  // (14 months) is fully covered by the calendar.
  StepContext ctx{spec, {}, spec.floor.to_double(), spec.cap.to_double()};
  SimTime span = 0;
  for (std::size_t m = 0; m < spec.params.size(); ++m) {
    span += (m < kTraceMonths ? days_in_month(m) : 30) * kDay;
    ctx.month_ends.push_back(span);
  }
  const auto num_steps = static_cast<std::size_t>(span / spec.step);
  // First step index at or after time t (clamped to the trace).
  const auto step_at = [&](SimTime t) {
    if (t <= 0) return std::size_t{0};
    if (t >= static_cast<SimTime>(num_steps) * spec.step) return num_steps;
    return static_cast<std::size_t>((t + spec.step - 1) / spec.step);
  };
  // The step covering `from`, and the first step at or after `until`.
  const std::size_t first =
      from <= 0 ? 0
                : std::min(num_steps,
                           static_cast<std::size_t>(from / spec.step));
  const std::size_t last = step_at(until);
  REDSPOT_CHECK_MSG(first < last,
                    "empty span [" << from << "," << until << ")");

  // Skip pass: each zone walks up to the span drawing what it would draw,
  // and keeps the cursor at its last regime switch before the span.
  std::vector<ZoneCursor> cursors;
  cursors.reserve(spec.num_zones);
  std::size_t shared_from = first;
  for (std::size_t z = 0; z < spec.num_zones; ++z) {
    ZoneCursor cursor(ctx, z);
    cursors.push_back(cursor);
    cursor.skip_to(ctx, first, cursors.back());
    shared_from = std::min(shared_from, cursors.back().next);
  }

  // The shared innovation stream models the weak common demand factor that
  // gives the real data its faint cross-zone dependence. One normal per
  // step; only the steps some zone computes exactly are evaluated.
  Rng common_rng(spec.seed, /*stream=*/0xC0FFEE);
  for (std::size_t i = 0; i < shared_from; ++i) common_rng.skip_normal();
  std::vector<double> shared(last - shared_from);
  for (double& x : shared) x = common_rng.normal();

  std::vector<PriceSeries> series;
  std::vector<std::string> names;
  series.reserve(spec.num_zones);

  for (ZoneCursor& cursor : cursors) {
    const auto exact = [&] {
      return cursor.advance(ctx, shared[cursor.next - shared_from]);
    };
    while (cursor.next < first) exact();
    std::vector<Money> samples(last - first);
    for (Money& sample : samples) sample = exact();

    // Forced spikes are written last so they override everything (they
    // model specific historical events such as the $20.02 spike of Mar
    // 13-14 2013).
    for (const ForcedSpike& fs : spec.forced_spikes) {
      if (fs.zone != cursor.zone) continue;
      REDSPOT_CHECK(fs.duration > 0);
      const std::size_t end = std::min(last, step_at(fs.start + fs.duration));
      for (std::size_t i = std::max(first, step_at(fs.start)); i < end; ++i)
        samples[i - first] = fs.price;
    }
    series.emplace_back(static_cast<SimTime>(first) * spec.step, spec.step,
                        std::move(samples));
    names.push_back("zone-" +
                    std::string(1, static_cast<char>('a' + cursor.zone)));
  }
  return ZoneTraceSet(std::move(names), std::move(series));
}

SyntheticTraceSpec trimmed_spec(SyntheticTraceSpec spec, SimTime keep_until) {
  REDSPOT_CHECK(keep_until > 0);
  SimTime span = 0;
  std::size_t months = 0;
  while (span < keep_until && months < spec.params.size()) {
    span += (months < kTraceMonths ? days_in_month(months) : 30) * kDay;
    ++months;
  }
  REDSPOT_CHECK_MSG(span >= keep_until, "keep_until beyond the spec's span");
  spec.params.resize(months);
  std::erase_if(spec.forced_spikes,
                [span](const ForcedSpike& fs) { return fs.start >= span; });
  return spec;
}

SyntheticTraceSpec paper_trace_spec(std::uint64_t seed) {
  SyntheticTraceSpec spec;
  spec.seed = seed;
  spec.num_zones = 3;
  spec.floor = Money::cents(27);
  spec.cap = Money::dollars(3.05);
  spec.cross_coupling = 0.05;

  // --- Calibration targets (Section 5 of the paper) -----------------------
  // Low-volatility month (March 2013): mean ~$0.30, var < 0.01, long
  // sojourns at the $0.27 floor so that a $0.27 bid is frequently "up".
  auto low_vol = [](std::size_t z) {
    ZoneMonthParams p;
    // Level slightly below the floor: the published price spends most of
    // its time pinned at $0.27, as the real March 2013 CC2 data did.
    p.calm = {0.264 + 0.003 * static_cast<double>(z), 0.012, 0.85, 0.10};
    p.high_fraction = 0.0;
    p.calm_mean_dwell = 8 * kHour;
    // Rare brief bumps — occasionally approaching $3.00, the spike
    // ceiling Section 5 cites as the reason to bid above $2.40 — drive
    // the occasional failure that separates the policies at t_c = 900 s.
    p.spikes = {0.25, 0.55, 2.60, 25 * kMinute};
    return p;
  };

  // High-volatility month (January 2013): zone means ~$0.70/$0.90/$1.12,
  // large variance, excursions approaching $3.00. Calm levels sit below the
  // $0.81 "sweet-spot" bid; high-regime levels sit well above it.
  auto high_vol = [](std::size_t z) {
    ZoneMonthParams p;
    const double calm_level[3] = {0.40, 0.46, 0.55};
    const double high_level[3] = {1.76, 2.15, 2.45};
    const double high_sd[3] = {0.14, 0.20, 0.26};
    const double frac[3] = {0.22, 0.26, 0.30};
    p.calm = {calm_level[z], 0.020, 0.80, 0.15};
    p.high = {high_level[z], high_sd[z], 0.85, 0.30};
    p.high_fraction = frac[z];
    p.calm_mean_dwell = 5 * kHour;
    p.spikes = {1.5, 2.0, 3.0, 40 * kMinute};
    return p;
  };

  // Moderately volatile month (the remaining months; also what the
  // queuing-delay study and VAR analysis sweep over).
  auto moderate = [](std::size_t z) {
    ZoneMonthParams p;
    p.calm = {0.30 + 0.012 * static_cast<double>(z), 0.015, 0.85};
    p.high = {1.05 + 0.15 * static_cast<double>(z), 0.10, 0.80};
    p.high_fraction = 0.10;
    p.calm_mean_dwell = 8 * kHour;
    p.spikes = {0.3, 1.2, 3.0, 30 * kMinute};
    return p;
  };

  // December 2012 (Figure 2's Dec 19 window) is noticeably volatile.
  auto dec2012 = [&](std::size_t z) {
    ZoneMonthParams p = moderate(z);
    p.high_fraction = 0.25;
    p.high.level = 1.15 + 0.20 * static_cast<double>(z);
    p.calm_mean_dwell = 4 * kHour;
    p.spikes = {1.0, 1.5, 3.0, 45 * kMinute};
    return p;
  };

  spec.params.resize(kTraceMonths);
  for (std::size_t m = 0; m < kTraceMonths; ++m) {
    spec.params[m].resize(spec.num_zones);
    for (std::size_t z = 0; z < spec.num_zones; ++z) {
      if (m == kHighVolatilityMonth) {
        spec.params[m][z] = high_vol(z);
      } else if (m == kLowVolatilityMonth) {
        spec.params[m][z] = low_vol(z);
      } else if (m == 0) {
        spec.params[m][z] = dec2012(z);
      } else {
        spec.params[m][z] = moderate(z);
      }
    }
  }

  // The $20.02 spike of March 13-14 2013 (Section 7.2.2): nine hours in one
  // zone, starting the evening of the 13th.
  spec.forced_spikes.push_back(ForcedSpike{
      .zone = 0,
      .start = day_start(kLowVolatilityMonth, 13) + 18 * kHour,
      .duration = 9 * kHour,
      .price = Money::dollars(20.02),
  });
  return spec;
}

ZoneTraceSet paper_traces(std::uint64_t seed) {
  return generate_traces(paper_trace_spec(seed));
}

}  // namespace redspot
