// Deterministic random-number generation.
//
// Every stochastic component of redspot (synthetic traces, queue delays)
// draws from an explicitly seeded Rng. We implement the generator and the
// distributions ourselves rather than using <random>'s distributions, whose
// output is not specified by the standard and differs between library
// implementations — reproducibility of the experiment sweeps across
// toolchains is a requirement.
//
// Generator: xoshiro256++ (Blackman & Vigna), seeded via SplitMix64.
//
// The per-sample draws (next_u64, uniform, bernoulli, normal, skip_normal,
// exponential) are defined inline here: trace synthesis makes several per
// price sample, and a call per draw was a measurable share of it; a call
// that takes the generator's address also keeps a caller's local copy of
// it out of registers. Their arithmetic and draw order are pinned by
// Rng.StreamIsPinned (a digest of two streams' first draws) and, through
// the generator, by Synthetic.TracesArePinned.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/check.hpp"

namespace redspot {

/// SplitMix64 step — used for seeding and for hashing stream ids.
std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic PRNG with explicit seeding and independent streams.
///
/// `Rng(seed, stream)` produces a sequence fully determined by (seed,
/// stream); distinct streams are statistically independent, which lets each
/// zone / each spot request own a private stream derived from the experiment
/// seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

  /// Next 64 uniformly random bits.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    // 53 random bits into [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    REDSPOT_CHECK(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal() {
    // Box-Muller, always drawing a fresh pair (no hidden state).
    double u1;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  /// Consumes exactly the draws normal() consumes, computing nothing: the
  /// stream ends where normal() leaves it, with no libm call. For callers
  /// that must keep their place in a stream without reading the value.
  void skip_normal() {
    while (uniform() <= 0.0) {
    }
    next_u64();
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with given rate lambda (> 0).
  double exponential(double lambda) {
    REDSPOT_CHECK(lambda > 0);
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
  }

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  // UniformRandomBitGenerator interface (for std::shuffle etc.).
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace redspot
