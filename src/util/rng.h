// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component of the simulation draws from an Rng seeded from
// a single experiment-level seed, so that every test, example and benchmark
// run is exactly reproducible. The generator is a small, fast xoshiro256**
// implementation; it is NOT cryptographically secure and must never be used
// for key material (the simulator has none).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace vpna::util {

// Splittable deterministic random number generator.
//
// `fork(label)` derives an independent stream from a parent generator and a
// string label, so that adding a new consumer of randomness in one module
// does not perturb the draws seen by any other module.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  // Derives an independent child generator. The child's stream depends only
  // on this generator's seed and `label`, not on how many values have been
  // drawn from the parent.
  [[nodiscard]] Rng fork(std::string_view label) const noexcept;

  // Uniform draw over the full 64-bit range.
  std::uint64_t next() noexcept;

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform real in [0, 1).
  double uniform() noexcept;

  // Uniform real in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  // Normal draw via Box-Muller.
  double normal(double mean, double stddev) noexcept;

  // True with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  // Picks a uniformly random element index for a container of size n.
  // Requires n > 0.
  std::size_t index(std::size_t n) noexcept;

  // Samples k distinct indices from [0, n). Requires k <= n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t s_[4] = {};
};

// Stable 64-bit FNV-1a hash of a string; used for seed derivation and for
// content fingerprinting in tests.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s) noexcept;

}  // namespace vpna::util
