#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace dtucker {

namespace {

inline uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(x);
}

namespace {

// One xoshiro256++ step on `s`.
inline uint64_t Xoshiro256pp(uint64_t* s) {
  const uint64_t result = Rotl(s[0] + s[3], 23) + s[0];
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = Rotl(s[3], 45);
  return result;
}

}  // namespace

uint64_t Rng::NextU64() { return Xoshiro256pp(s_); }

void Rng::FillU64(uint64_t* out, std::size_t n) {
  uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  for (std::size_t i = 0; i < n; ++i) out[i] = Xoshiro256pp(s);
  for (int i = 0; i < 4; ++i) s_[i] = s[i];
}

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  DT_DCHECK(n > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t limit = ~uint64_t{0} - (~uint64_t{0} % n);
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return v % n;
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - Uniform();
  double u2 = Uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

void Rng::FillGaussian(double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = Gaussian();
}

void Rng::FillUniform(double* out, std::size_t n, double lo, double hi) {
  for (std::size_t i = 0; i < n; ++i) out[i] = Uniform(lo, hi);
}

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  // Fisher-Yates.
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = UniformInt(i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

Rng Rng::Split() { return Rng(NextU64()); }

}  // namespace dtucker
