// Deterministic random number generation for simulations.
//
// The experiment harness must be reproducible bit-for-bit across runs and
// platforms, so we implement our own generator (xoshiro256++) and our own
// distribution transforms instead of relying on implementation-defined
// behaviour of <random> distributions.
#pragma once

#include <cstdint>

#include "common/time.hpp"

namespace omega {

/// xoshiro256++ 1.0 by Blackman & Vigna (public domain reference algorithm).
/// 256-bit state, period 2^256 - 1, excellent statistical quality, and —
/// unlike std:: distributions — fully deterministic across toolchains.
class rng {
 public:
  /// Seeds the state from a single 64-bit seed via splitmix64, which
  /// guarantees a non-zero, well-mixed initial state.
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_below(std::uint64_t n);

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean (inverse-CDF
  /// transform). Mean <= 0 yields 0.
  double exponential(double mean);

  /// Exponentially distributed duration with the given mean duration.
  duration exponential(duration mean);

  /// Pareto-distributed value with the given mean and tail exponent
  /// `alpha` (classic Pareto(x_m, alpha) with x_m = mean (alpha - 1) /
  /// alpha). Smaller alpha = heavier tail; alpha is clamped above 1 so the
  /// mean exists. Mean <= 0 yields 0.
  double pareto(double mean, double alpha);

  /// Pareto-distributed duration with the given mean duration.
  duration pareto(duration mean, double alpha);

  /// Creates an independent child generator. Used to give every stochastic
  /// component (each link, each node's churn process, ...) its own stream so
  /// that adding a component does not perturb the draws of the others.
  rng split();

 private:
  std::uint64_t state_[4];
};

}  // namespace omega
