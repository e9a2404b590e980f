#include "markov/uptime.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "linalg/lu.hpp"

namespace redspot {

namespace {

/// out[c] = 0.0 - q[c]: I - Q's off-diagonal entries, written exactly as
/// (r == c ? 1.0 : 0.0) - q (so a zero q gives +0.0, not -0.0).
void negate_row(double* __restrict out, const double* __restrict q,
                std::size_t len) {
  for (std::size_t c = 0; c < len; ++c) out[c] = 0.0 - q[c];
}

}  // namespace

Duration expected_uptime(const MarkovModel& model, Money current_price,
                         Money bid, Duration cap) {
  UptimeScratch scratch;
  return expected_uptime(model, current_price, bid, cap, scratch);
}

Duration expected_uptime(const MarkovModel& model, Money current_price,
                         Money bid, Duration cap, UptimeScratch& scratch) {
  REDSPOT_CHECK(model.num_states() > 0);
  REDSPOT_CHECK(cap > 0);
  if (current_price > bid) return 0;

  // state_prices is ascending, so the alive states (price <= bid) are
  // exactly the prefix [0, a].
  const std::size_t a = model.max_alive_state(bid);
  if (a == SIZE_MAX) return 0;
  const std::size_t m = a + 1;

  // Q: transition sub-matrix among alive states. Absorption = any move to
  // a dead state (price above bid). Built directly into the reused buffer
  // (every entry is written) and factored in place.
  scratch.i_minus_q.resize(m * m);
  double* imq = scratch.i_minus_q.data();
  const double* trans = model.trans.data();
  const std::size_t n = model.num_states();
  for (std::size_t r = 0; r < m; ++r) {
    negate_row(imq + r * m, trans + r * n, m);
    imq[r * m + r] = 1.0 - trans[r * n + r];
  }

  scratch.perm.resize(m);
  int perm_sign = 1;
  if (detail::lu_factor_inplace(imq, m, scratch.perm.data(), &perm_sign)) {
    // A closed communicating class within the bid: the chain can never be
    // absorbed from (at least) the current state — up "forever".
    return cap;
  }

  const std::size_t start = model.state_of(current_price);
  if (start > a) return 0;  // nearest state is out-of-bid

  // t = (I - Q)^{-1} 1: expected steps to absorption from each alive
  // state. b = 1 is permutation-invariant, so the permutation drops out.
  scratch.t.resize(m);
  double* t = scratch.t.data();
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = imq + i * m;
    double acc = 1.0;
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * t[j];
    t[i] = acc;
  }
  // Back substitution, down to the start state: t[start] reads only the
  // t[j] above it.
  for (std::size_t ii = m; ii-- > start;) {
    const double* row = imq + ii * m;
    double acc = t[ii];
    for (std::size_t j = ii + 1; j < m; ++j) acc -= row[j] * t[j];
    t[ii] = acc / row[ii];
  }

  const double steps = t[start];
  // Numerically near-singular systems can yield huge or negative values;
  // clamp into [0 steps, cap].
  if (!std::isfinite(steps) || steps < 0.0) return cap;
  const double seconds = steps * static_cast<double>(model.step);
  if (seconds >= static_cast<double>(cap)) return cap;
  return std::max<Duration>(0, static_cast<Duration>(std::llround(seconds)));
}

Duration expected_uptime_iterative(const MarkovModel& model,
                                   Money current_price, Money bid,
                                   std::size_t max_steps, Duration cap) {
  REDSPOT_CHECK(model.num_states() > 0);
  if (current_price > bid) return 0;

  const std::size_t n = model.num_states();
  const double b = bid.to_double() + 1e-9;
  std::vector<bool> alive(n);
  for (std::size_t i = 0; i < n; ++i) alive[i] = model.state_prices[i] <= b;

  const std::size_t start = model.state_of(current_price);
  if (!alive[start]) return 0;

  // PROB^k: probability of being alive in each state after k steps.
  std::vector<double> prob(n, 0.0);
  prob[start] = 1.0;
  std::vector<double> next(n);

  double expected_steps = 0.0;
  double alive_mass = 1.0;
  for (std::size_t k = 1; k <= max_steps; ++k) {
    // Equation 2: propagate alive mass one step.
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double p = prob[i];
      if (p == 0.0) continue;  // dead states were already zeroed
      for (std::size_t j = 0; j < n; ++j)
        next[j] += p * model.trans(i, j);
    }
    // Equation 3 (reversed indicator): mass now in out-of-bid states dies
    // at step k.
    double died = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!alive[j]) {
        died += next[j];
        next[j] = 0.0;
      }
    }
    expected_steps += static_cast<double>(k) * died;
    alive_mass -= died;
    prob.swap(next);

    // Th: stop once effectively all mass has been absorbed — the estimate
    // can no longer change at seconds granularity.
    if (alive_mass <= 1e-12) break;
    // Early cap: even the mass absorbed so far already exceeds the cap.
    if (expected_steps * static_cast<double>(model.step) >=
        static_cast<double>(cap))
      return cap;
  }
  // Whatever is still alive survived the horizon: credit it the horizon.
  expected_steps += alive_mass * static_cast<double>(max_steps);

  const double seconds =
      expected_steps * static_cast<double>(model.step);
  if (seconds >= static_cast<double>(cap)) return cap;
  return std::max<Duration>(0, static_cast<Duration>(std::llround(seconds)));
}

Duration combined_expected_uptime(std::span<const Duration> per_zone) {
  Duration total = 0;
  for (Duration d : per_zone) {
    REDSPOT_CHECK(d >= 0);
    total += d;
  }
  return total;
}

}  // namespace redspot
