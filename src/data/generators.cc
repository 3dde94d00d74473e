#include "data/generators.h"

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "linalg/qr.h"
#include "tensor/tensor_ops.h"
#include "tucker/tucker.h"

namespace dtucker {

Tensor MakeLowRankTensor(const std::vector<Index>& shape,
                         const std::vector<Index>& ranks, double noise,
                         uint64_t seed) {
  DT_CHECK_EQ(shape.size(), ranks.size()) << "one rank per mode";
  Rng rng(seed);
  TuckerDecomposition truth;
  truth.core = Tensor::GaussianRandom(ranks, rng);
  truth.factors.reserve(shape.size());
  for (std::size_t n = 0; n < shape.size(); ++n) {
    truth.factors.push_back(
        QrOrthonormalize(Matrix::GaussianRandom(shape[n], ranks[n], rng)));
  }
  Tensor x = truth.Reconstruct();
  if (noise > 0.0) {
    const double scale =
        noise * x.FrobeniusNorm() / std::sqrt(static_cast<double>(x.size()));
    for (Index i = 0; i < x.size(); ++i) {
      x.data()[i] += scale * rng.Gaussian();
    }
  }
  return x;
}

Tensor MakeVideoAnalog(Index height, Index width, Index frames,
                       Index num_objects, double noise, uint64_t seed) {
  Rng rng(seed);
  Tensor x({height, width, frames});

  // Smooth background: a few separable low-frequency modes.
  const int bg_modes = 4;
  std::vector<double> phase_h(bg_modes), phase_w(bg_modes), amp(bg_modes);
  for (int m = 0; m < bg_modes; ++m) {
    phase_h[m] = rng.Uniform(0, 2 * M_PI);
    phase_w[m] = rng.Uniform(0, 2 * M_PI);
    amp[m] = rng.Uniform(0.5, 1.5);
  }

  // Moving blobs: linear trajectories with per-object width and intensity.
  struct Blob {
    double x0, y0, vx, vy, sigma, intensity;
  };
  std::vector<Blob> blobs(static_cast<std::size_t>(num_objects));
  for (auto& b : blobs) {
    b.x0 = rng.Uniform(0, static_cast<double>(width));
    b.y0 = rng.Uniform(0, static_cast<double>(height));
    b.vx = rng.Uniform(-0.5, 0.5) * static_cast<double>(width) /
           static_cast<double>(frames) * 4.0;
    b.vy = rng.Uniform(-0.5, 0.5) * static_cast<double>(height) /
           static_cast<double>(frames) * 4.0;
    b.sigma = rng.Uniform(0.03, 0.10) * static_cast<double>(std::min(height,
                                                                     width));
    b.intensity = rng.Uniform(0.5, 2.0);
  }

  // The background of every pixel and the blob centres of every frame,
  // computed once with the same expressions (the same bits) the
  // per-element loop would use; only the noise draws remain per element,
  // in their original order.
  std::vector<double> background(static_cast<std::size_t>(height * width));
  for (Index j = 0; j < width; ++j) {
    for (Index i = 0; i < height; ++i) {
      double v = 0.0;
      for (int m = 0; m < bg_modes; ++m) {
        v += amp[m] *
             std::sin((m + 1) * M_PI * i / static_cast<double>(height) +
                      phase_h[m]) *
             std::cos((m + 1) * M_PI * j / static_cast<double>(width) +
                      phase_w[m]);
      }
      background[static_cast<std::size_t>(i + height * j)] = v;
    }
  }
  std::vector<double> bx(blobs.size()), by(blobs.size());
  for (Index t = 0; t < frames; ++t) {
    const double tt = static_cast<double>(t) / static_cast<double>(frames);
    const double pulse = 0.75 + 0.25 * std::sin(2 * M_PI * tt * 3.0);
    for (std::size_t o = 0; o < blobs.size(); ++o) {
      // Positions wrap around so blobs stay in frame.
      const Blob& b = blobs[o];
      bx[o] = std::fmod(b.x0 + b.vx * t, static_cast<double>(width));
      by[o] = std::fmod(b.y0 + b.vy * t, static_cast<double>(height));
      if (bx[o] < 0) bx[o] += width;
      if (by[o] < 0) by[o] += height;
    }
    for (Index j = 0; j < width; ++j) {
      for (Index i = 0; i < height; ++i) {
        double v = background[static_cast<std::size_t>(i + height * j)];
        for (std::size_t o = 0; o < blobs.size(); ++o) {
          const Blob& b = blobs[o];
          const double dx = static_cast<double>(j) - bx[o];
          const double dy = static_cast<double>(i) - by[o];
          const double d2 = dx * dx + dy * dy;
          if (d2 < 25.0 * b.sigma * b.sigma) {
            v += b.intensity * std::exp(-d2 / (2 * b.sigma * b.sigma)) *
                 pulse;
          }
        }
        x(i, j, t) = v + noise * rng.Gaussian();
      }
    }
  }
  return x;
}

Tensor MakeStockAnalog(Index stocks, Index features, Index days,
                       Index num_factors, double noise, uint64_t seed) {
  Rng rng(seed);
  Matrix loadings = Matrix::GaussianRandom(stocks, num_factors, rng);
  Matrix exposures = Matrix::GaussianRandom(features, num_factors, rng);

  // Latent factors: random walks with occasional drift-regime switches.
  Matrix factors(days, num_factors);
  for (Index r = 0; r < num_factors; ++r) {
    double level = rng.Gaussian();
    double drift = 0.02 * rng.Gaussian();
    for (Index t = 0; t < days; ++t) {
      if (rng.Uniform() < 0.01) drift = 0.02 * rng.Gaussian();  // Regime.
      level += drift + 0.1 * rng.Gaussian();
      factors(t, r) = level;
    }
  }

  Tensor x({stocks, features, days});
  for (Index t = 0; t < days; ++t) {
    for (Index f = 0; f < features; ++f) {
      for (Index s = 0; s < stocks; ++s) {
        double v = 0.0;
        for (Index r = 0; r < num_factors; ++r) {
          v += loadings(s, r) * exposures(f, r) * factors(t, r);
        }
        x(s, f, t) = v + noise * rng.Gaussian();
      }
    }
  }
  return x;
}

Tensor MakeTrafficAnalog(Index sensors, Index bins, Index timesteps,
                         double noise, uint64_t seed) {
  Rng rng(seed);
  const Index day = 96;  // Timesteps per synthetic day (15-min bins).
  // Per-sensor scale and rush-hour offsets.
  std::vector<double> scale(static_cast<std::size_t>(sensors));
  std::vector<double> offset(static_cast<std::size_t>(sensors));
  for (Index s = 0; s < sensors; ++s) {
    scale[static_cast<std::size_t>(s)] = rng.Uniform(0.5, 2.0);
    offset[static_cast<std::size_t>(s)] = rng.Uniform(-8, 8);
  }
  // Per-bin frequency response (smooth in the bin index).
  std::vector<double> response(static_cast<std::size_t>(bins));
  for (Index b = 0; b < bins; ++b) {
    response[static_cast<std::size_t>(b)] =
        0.5 + std::exp(-0.5 * std::pow((b - bins / 3.0) / (bins / 6.0), 2)) +
        0.3 * std::exp(-0.5 * std::pow((b - 2.2 * bins / 3.0) / (bins / 8.0),
                                       2));
  }

  // The rush-hour curve of every sensor, once per timestep instead of
  // once per bin (same expressions, same bits; the noise draws keep their
  // order).
  std::vector<double> curve(static_cast<std::size_t>(sensors));
  Tensor x({sensors, bins, timesteps});
  for (Index t = 0; t < timesteps; ++t) {
    const double weekly =
        1.0 -
        0.35 * (std::fmod(static_cast<double>(t), 7.0 * day) > 5.0 * day);
    for (Index s = 0; s < sensors; ++s) {
      const double tod = std::fmod(
          static_cast<double>(t) + offset[static_cast<std::size_t>(s)],
          static_cast<double>(day));
      // Two rush-hour peaks per day.
      const double morning =
          std::exp(-0.5 * std::pow((tod - 0.33 * day) / (0.06 * day), 2));
      const double evening =
          std::exp(-0.5 * std::pow((tod - 0.72 * day) / (0.08 * day), 2));
      curve[static_cast<std::size_t>(s)] = scale[static_cast<std::size_t>(s)] *
                                           weekly *
                                           (0.2 + morning + 0.8 * evening);
    }
    for (Index b = 0; b < bins; ++b) {
      for (Index s = 0; s < sensors; ++s) {
        double v = curve[static_cast<std::size_t>(s)] *
                   response[static_cast<std::size_t>(b)];
        x(s, b, t) = v + noise * rng.Gaussian();
      }
    }
  }
  return x;
}

Tensor MakeMusicAnalog(Index songs, Index bins, Index frames, double noise,
                       uint64_t seed) {
  Rng rng(seed);
  Tensor x({songs, bins, frames});
  const int harmonics = 6;
  std::vector<double> profile(static_cast<std::size_t>(bins));
  for (Index s = 0; s < songs; ++s) {
    // Each song: a fundamental bin, harmonic decay, tempo of its envelope.
    const double f0 = rng.Uniform(2.0, static_cast<double>(bins) / 8.0);
    const double decay = rng.Uniform(0.4, 0.8);
    const double tempo = rng.Uniform(1.0, 6.0);
    const double loudness = rng.Uniform(0.5, 2.0);
    // The song's harmonic profile over the bins, once instead of once per
    // frame (same expressions, same bits).
    for (Index b = 0; b < bins; ++b) {
      double v = 0.0;
      double a = loudness;
      for (int h = 1; h <= harmonics; ++h) {
        const double center = f0 * h;
        if (center >= bins) break;
        v += a * std::exp(-0.5 * std::pow((b - center) / 1.5, 2));
        a *= decay;
      }
      profile[static_cast<std::size_t>(b)] = v;
    }
    for (Index t = 0; t < frames; ++t) {
      const double env =
          0.5 + 0.5 * std::sin(2 * M_PI * tempo * t /
                               static_cast<double>(frames));
      for (Index b = 0; b < bins; ++b) {
        x(s, b, t) = profile[static_cast<std::size_t>(b)] * env +
                     noise * rng.Gaussian();
      }
    }
  }
  return x;
}

Tensor MakeClimateAnalog(Index lon, Index lat, Index alt, Index timesteps,
                         double noise, uint64_t seed) {
  Rng rng(seed);
  const int modes = 3;
  std::vector<double> phase_lon(modes), phase_lat(modes), amp(modes);
  for (int m = 0; m < modes; ++m) {
    phase_lon[m] = rng.Uniform(0, 2 * M_PI);
    phase_lat[m] = rng.Uniform(0, 2 * M_PI);
    amp[m] = rng.Uniform(0.5, 1.5);
  }
  const double season_len = std::max<double>(12.0, timesteps / 4.0);

  // The horizontal pattern of every (lon, lat) column, once instead of
  // once per altitude and timestep (same expressions, same bits).
  std::vector<double> pattern(static_cast<std::size_t>(lon * lat));
  for (Index j = 0; j < lat; ++j) {
    for (Index i = 0; i < lon; ++i) {
      double v = 0.0;
      for (int m = 0; m < modes; ++m) {
        v += amp[m] *
             std::sin((m + 1) * 2 * M_PI * i / static_cast<double>(lon) +
                      phase_lon[m]) *
             std::cos((m + 1) * M_PI * j / static_cast<double>(lat) +
                      phase_lat[m]);
      }
      pattern[static_cast<std::size_t>(i + lon * j)] = v;
    }
  }

  Tensor x({lon, lat, alt, timesteps});
  for (Index t = 0; t < timesteps; ++t) {
    const double season =
        1.0 + 0.5 * std::sin(2 * M_PI * t / season_len + 0.7);
    for (Index a = 0; a < alt; ++a) {
      // Absorption decays with altitude.
      const double alt_profile = std::exp(-2.0 * a / static_cast<double>(alt));
      for (Index j = 0; j < lat; ++j) {
        for (Index i = 0; i < lon; ++i) {
          x(i, j, a, t) = season * alt_profile *
                              (1.5 + pattern[static_cast<std::size_t>(
                                         i + lon * j)]) +
                          noise * rng.Gaussian();
        }
      }
    }
  }
  return x;
}

}  // namespace dtucker
