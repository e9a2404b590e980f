#include "common/random.hpp"

#include <cmath>

#include "common/check.hpp"

namespace redspot {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  // Mix seed and stream so that nearby (seed, stream) pairs give unrelated
  // state. SplitMix64 is a strong enough mixer for this purpose.
  std::uint64_t sm = seed;
  (void)splitmix64(sm);
  sm ^= 0xA0761D6478BD642FULL * (stream + 1);
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro256++ must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  REDSPOT_CHECK(n > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

double Rng::normal(double mean, double stddev) {
  REDSPOT_CHECK(stddev >= 0);
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

}  // namespace redspot
