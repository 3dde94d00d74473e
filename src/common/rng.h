// Deterministic pseudo-random number generation.
//
// All randomized algorithms in this project (randomized SVD, MACH sampling,
// CountSketch hashing, synthetic data generation) draw from Rng so that any
// experiment is exactly reproducible from its seed. The core generator is
// xoshiro256++ (Blackman & Vigna), which is fast, tiny, and has no BLAS-
// style global state.
#ifndef DTUCKER_COMMON_RNG_H_
#define DTUCKER_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace dtucker {

class Rng {
 public:
  // Seeds the state via SplitMix64 so that nearby seeds give unrelated
  // streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Next raw 64-bit value.
  uint64_t NextU64();

  // The next n raw values, as n calls of NextU64 would return them, with
  // the state kept in registers across the batch.
  void FillU64(uint64_t* out, std::size_t n);

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n); n must be > 0.
  uint64_t UniformInt(uint64_t n);

  // Standard normal via Box-Muller (cached second value).
  double Gaussian();

  // Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  // Fills `out` with i.i.d. standard normal samples.
  void FillGaussian(double* out, std::size_t n);

  // Fills `out` with i.i.d. Uniform[lo, hi) samples.
  void FillUniform(double* out, std::size_t n, double lo = 0.0,
                   double hi = 1.0);

  // Returns a uniformly random permutation of {0, ..., n-1}.
  std::vector<std::size_t> Permutation(std::size_t n);

  // Splits off an independent child generator (for per-slice parallelism or
  // structured experiments); the parent stream advances by one draw.
  Rng Split();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace dtucker

#endif  // DTUCKER_COMMON_RNG_H_
