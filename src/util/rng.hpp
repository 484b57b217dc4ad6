// rng.hpp — deterministic pseudo-random number generation.
//
// Every stochastic element of the reproduction (OS jitter, run-to-run
// variability, NVML capping failures, queue workload mixes) draws from a
// seeded generator so each table and figure is byte-reproducible. We use
// xoshiro256** seeded via splitmix64 — fast, high quality, and identical
// across platforms (unlike std::default_random_engine).
#pragma once

#include <cstdint>
#include <limits>

namespace fluxpower::util {

/// splitmix64: used to expand a single 64-bit seed into generator state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EEDB0A7ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>((*this)() % span);
  }

  /// Standard normal via Box–Muller (one value per call; simple and exact
  /// enough for jitter modelling).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Exponential with given mean (inter-arrival modelling).
  double exponential(double mean);

  /// The full 256-bit generator state, exposed for the digital twin's
  /// state probe: a substream's position *is* sim state (two runs agreeing
  /// on every stream position will draw identical futures).
  struct State {
    std::uint64_t s[4] = {};
    bool operator==(const State&) const = default;
  };
  State state() const noexcept {
    return State{{state_[0], state_[1], state_[2], state_[3]}};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace fluxpower::util
