// Deterministic random number generation.
//
// Everything stochastic in the reproduction (weather attenuation in the solar
// generator, measurement noise on profiling samples, load jitter) draws from
// a seeded engine so every bench and test is exactly reproducible.
#pragma once

#include <cstdint>
#include <random>

namespace greenhetero {

/// Seeded pseudo-random source.  A thin wrapper over std::mt19937_64 with the
/// handful of distributions the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Gaussian with the given mean / standard deviation.
  [[nodiscard]] double gaussian(double mean, double stddev);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] int uniform_int(int lo, int hi);

  /// Bernoulli trial with probability p of true.
  [[nodiscard]] bool bernoulli(double p);

  /// Derive an independent child generator.  The child's stream depends only
  /// on (master seed, label), not on how much of this generator has been
  /// consumed, so forking is order-insensitive.
  [[nodiscard]] Rng fork(std::uint64_t label) const;

  /// Checkpoint the engine state (the mt19937_64 textual state image plus
  /// the fork seed) so a resumed run continues the exact stream.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_ = 0;
};

}  // namespace greenhetero
