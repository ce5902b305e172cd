#ifndef QPLEX_COMMON_RNG_H_
#define QPLEX_COMMON_RNG_H_

#include <cstdint>

#include "common/status.h"

namespace qplex {

/// Deterministic 64-bit PRNG (xoshiro256**). Every stochastic component in
/// qplex takes an explicit seed so that experiments are reproducible
/// run-to-run and machine-to-machine; std::mt19937 distributions are not
/// guaranteed identical across standard libraries, so we roll our own
/// generator and derived distributions.
class Rng {
 public:
  /// Seeds the state via SplitMix64 so that nearby seeds give unrelated
  /// streams (a raw zero seed is also valid).
  explicit Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      // SplitMix64 step.
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be positive. Uses rejection
  /// sampling (Lemire-style) to avoid modulo bias.
  std::uint64_t UniformInt(std::uint64_t bound) {
    QPLEX_CHECK(bound > 0) << "UniformInt bound must be positive";
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = Next();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    QPLEX_CHECK(lo <= hi) << "UniformInt range is empty";
    const std::uint64_t width =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(UniformInt(width));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with success probability `p`.
  bool Bernoulli(double p) { return UniformDouble() < p; }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace qplex

#endif  // QPLEX_COMMON_RNG_H_
