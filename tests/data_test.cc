#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "data/tensor_io.h"
#include "tucker/hosvd.h"

namespace dtucker {
namespace {

// The analog generators as they were before their loop invariants were
// hoisted: every value recomputed per element. The hoisted generators
// must reproduce them bit for bit (same expressions, same RNG call order).
Tensor ReferenceVideoAnalog(Index height, Index width, Index frames,
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

  for (Index t = 0; t < frames; ++t) {
    const double tt = static_cast<double>(t) / static_cast<double>(frames);
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
        for (const Blob& b : blobs) {
          // Positions wrap around so blobs stay in frame.
          double bx = std::fmod(b.x0 + b.vx * t, static_cast<double>(width));
          double by = std::fmod(b.y0 + b.vy * t, static_cast<double>(height));
          if (bx < 0) bx += width;
          if (by < 0) by += height;
          const double dx = static_cast<double>(j) - bx;
          const double dy = static_cast<double>(i) - by;
          const double d2 = dx * dx + dy * dy;
          if (d2 < 25.0 * b.sigma * b.sigma) {
            v += b.intensity * std::exp(-d2 / (2 * b.sigma * b.sigma)) *
                 (0.75 + 0.25 * std::sin(2 * M_PI * tt * 3.0));
          }
        }
        x(i, j, t) = v + noise * rng.Gaussian();
      }
    }
  }
  return x;
}

Tensor ReferenceTrafficAnalog(Index sensors, Index bins, Index timesteps,
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

  Tensor x({sensors, bins, timesteps});
  for (Index t = 0; t < timesteps; ++t) {
    for (Index b = 0; b < bins; ++b) {
      for (Index s = 0; s < sensors; ++s) {
        const double tod = std::fmod(
            static_cast<double>(t) + offset[static_cast<std::size_t>(s)],
            static_cast<double>(day));
        // Two rush-hour peaks per day.
        const double morning =
            std::exp(-0.5 * std::pow((tod - 0.33 * day) / (0.06 * day), 2));
        const double evening =
            std::exp(-0.5 * std::pow((tod - 0.72 * day) / (0.08 * day), 2));
        const double weekly =
            1.0 - 0.35 * (std::fmod(static_cast<double>(t), 7.0 * day) >
                          5.0 * day);
        double v = scale[static_cast<std::size_t>(s)] * weekly *
                   (0.2 + morning + 0.8 * evening) *
                   response[static_cast<std::size_t>(b)];
        x(s, b, t) = v + noise * rng.Gaussian();
      }
    }
  }
  return x;
}

Tensor ReferenceMusicAnalog(Index songs, Index bins, Index frames, double noise,
                       uint64_t seed) {
  Rng rng(seed);
  Tensor x({songs, bins, frames});
  const int harmonics = 6;
  for (Index s = 0; s < songs; ++s) {
    // Each song: a fundamental bin, harmonic decay, tempo of its envelope.
    const double f0 = rng.Uniform(2.0, static_cast<double>(bins) / 8.0);
    const double decay = rng.Uniform(0.4, 0.8);
    const double tempo = rng.Uniform(1.0, 6.0);
    const double loudness = rng.Uniform(0.5, 2.0);
    for (Index t = 0; t < frames; ++t) {
      const double env =
          0.5 + 0.5 * std::sin(2 * M_PI * tempo * t /
                               static_cast<double>(frames));
      for (Index b = 0; b < bins; ++b) {
        double v = 0.0;
        double a = loudness;
        for (int h = 1; h <= harmonics; ++h) {
          const double center = f0 * h;
          if (center >= bins) break;
          v += a * std::exp(-0.5 * std::pow((b - center) / 1.5, 2));
          a *= decay;
        }
        x(s, b, t) = v * env + noise * rng.Gaussian();
      }
    }
  }
  return x;
}

Tensor ReferenceClimateAnalog(Index lon, Index lat, Index alt, Index timesteps,
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

  Tensor x({lon, lat, alt, timesteps});
  for (Index t = 0; t < timesteps; ++t) {
    const double season =
        1.0 + 0.5 * std::sin(2 * M_PI * t / season_len + 0.7);
    for (Index a = 0; a < alt; ++a) {
      // Absorption decays with altitude.
      const double alt_profile = std::exp(-2.0 * a / static_cast<double>(alt));
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
          x(i, j, a, t) =
              season * alt_profile * (1.5 + v) + noise * rng.Gaussian();
        }
      }
    }
  }
  return x;
}

// MakeDataset's shape rule and per-dataset parameters, on the reference
// generators (stock's generator kept its loops and is its own reference).
Tensor ReferenceDataset(const std::string& name, double scale, uint64_t seed) {
  std::vector<Index> d;
  for (const DatasetSpec& spec : BenchmarkDatasets()) {
    if (spec.name == name) d = spec.shape;
  }
  for (auto& v : d) {
    v = std::max<Index>(8, static_cast<Index>(std::llround(
                               static_cast<double>(v) * scale)));
  }
  if (name == "video") {
    return ReferenceVideoAnalog(d[0], d[1], d[2], 6, 0.05, seed);
  }
  if (name == "video2") {
    return ReferenceVideoAnalog(d[0], d[1], d[2], 10, 0.08, seed + 1);
  }
  if (name == "stock") {
    return MakeStockAnalog(d[0], d[1], d[2], 12, 0.3, seed + 2);
  }
  if (name == "traffic") {
    return ReferenceTrafficAnalog(d[0], d[1], d[2], 0.05, seed + 3);
  }
  if (name == "music") {
    return ReferenceMusicAnalog(d[0], d[1], d[2], 0.02, seed + 4);
  }
  return ReferenceClimateAnalog(d[0], d[1], d[2], d[3], 0.05, seed + 5);
}

TEST(GeneratorsTest, HoistedLoopsReproduceThePerElementReference) {
  for (const DatasetSpec& spec : BenchmarkDatasets()) {
    for (double scale : {0.15, 0.5}) {
      for (uint64_t seed : {1, 7}) {
        const Tensor got = MakeDataset(spec.name, scale, seed).ValueOrDie();
        const Tensor want = ReferenceDataset(spec.name, scale, seed);
        ASSERT_EQ(got.shape(), want.shape()) << spec.name;
        Index mismatches = 0;
        for (Index i = 0; i < got.size(); ++i) {
          // Bitwise: not even a last-place difference is allowed.
          mismatches += got.data()[i] != want.data()[i];
        }
        EXPECT_EQ(mismatches, 0) << spec.name << " scale " << scale
                                 << " seed " << seed;
      }
    }
  }
}

TEST(GeneratorsTest, LowRankTensorHasRequestedRank) {
  Tensor x = MakeLowRankTensor({12, 10, 8}, {3, 3, 3}, 0.0, 1);
  // Rank-(3,3,3) Tucker approximation must be exact.
  TuckerDecomposition dec = StHosvd(x, {3, 3, 3}).ValueOrDie();
  EXPECT_LT(dec.RelativeErrorAgainst(x), 1e-16);
  // Rank-(2,2,2) must not be (generic core).
  TuckerDecomposition dec2 = StHosvd(x, {2, 2, 2}).ValueOrDie();
  EXPECT_GT(dec2.RelativeErrorAgainst(x), 1e-6);
}

TEST(GeneratorsTest, NoiseRaisesResidual) {
  Tensor clean = MakeLowRankTensor({10, 10, 10}, {2, 2, 2}, 0.0, 2);
  Tensor noisy = MakeLowRankTensor({10, 10, 10}, {2, 2, 2}, 0.5, 2);
  TuckerDecomposition dc = StHosvd(clean, {2, 2, 2}).ValueOrDie();
  TuckerDecomposition dn = StHosvd(noisy, {2, 2, 2}).ValueOrDie();
  EXPECT_GT(dn.RelativeErrorAgainst(noisy), dc.RelativeErrorAgainst(clean));
}

TEST(GeneratorsTest, DeterministicInSeed) {
  Tensor a = MakeVideoAnalog(12, 10, 6, 2, 0.05, 7);
  Tensor b = MakeVideoAnalog(12, 10, 6, 2, 0.05, 7);
  Tensor c = MakeVideoAnalog(12, 10, 6, 2, 0.05, 8);
  EXPECT_TRUE(AlmostEqual(a, b, 0.0));
  EXPECT_FALSE(AlmostEqual(a, c, 1e-12));
}

TEST(GeneratorsTest, ShapesAsRequested) {
  EXPECT_EQ(MakeVideoAnalog(8, 9, 10, 2, 0, 1).shape(),
            (std::vector<Index>{8, 9, 10}));
  EXPECT_EQ(MakeStockAnalog(7, 5, 11, 3, 0, 1).shape(),
            (std::vector<Index>{7, 5, 11}));
  EXPECT_EQ(MakeTrafficAnalog(6, 4, 12, 0, 1).shape(),
            (std::vector<Index>{6, 4, 12}));
  EXPECT_EQ(MakeMusicAnalog(5, 16, 6, 0, 1).shape(),
            (std::vector<Index>{5, 16, 6}));
  EXPECT_EQ(MakeClimateAnalog(4, 5, 3, 6, 0, 1).shape(),
            (std::vector<Index>{4, 5, 3, 6}));
}

TEST(GeneratorsTest, AnalogsAreApproximatelyLowRank) {
  // The defining property the methods rely on: a modest Tucker rank
  // captures most of the energy.
  struct Case {
    Tensor x;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({MakeStockAnalog(40, 12, 50, 6, 0.1, 3), "stock"});
  cases.push_back({MakeTrafficAnalog(30, 12, 96, 0.05, 4), "traffic"});
  cases.push_back({MakeMusicAnalog(20, 32, 24, 0.02, 5), "music"});
  for (auto& c : cases) {
    TuckerDecomposition dec =
        StHosvd(c.x, {8, 8, std::min<Index>(8, c.x.dim(2))}).ValueOrDie();
    EXPECT_LT(dec.RelativeErrorAgainst(c.x), 0.25) << c.name;
  }
}

TEST(DatasetsTest, RegistryListsSix) {
  EXPECT_EQ(BenchmarkDatasets().size(), 6u);
  EXPECT_NE(DatasetNames().find("video"), std::string::npos);
  EXPECT_NE(DatasetNames().find("climate"), std::string::npos);
}

TEST(DatasetsTest, UnknownNameRejected) {
  EXPECT_FALSE(MakeDataset("nope").ok());
  EXPECT_FALSE(MakeDataset("video", 0.0).ok());
  EXPECT_FALSE(MakeDataset("video", 2.0).ok());
}

TEST(DatasetsTest, ScaleShrinksShape) {
  Result<Tensor> small = MakeDataset("stock", 0.05);
  ASSERT_TRUE(small.ok());
  EXPECT_LE(small.value().dim(0), 32);
  EXPECT_GE(small.value().dim(0), 8);  // Floor applies.
  EXPECT_EQ(small.value().order(), 3);
}

TEST(DatasetsTest, ClimateIsFourOrder) {
  Result<Tensor> t = MakeDataset("climate", 0.1);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().order(), 4);
}

TEST(TensorIoTest, SaveLoadRoundTrip) {
  Tensor x = MakeLowRankTensor({6, 5, 4}, {2, 2, 2}, 0.1, 6);
  const std::string path = ::testing::TempDir() + "/roundtrip.dtnsr";
  ASSERT_TRUE(SaveTensor(x, path).ok());
  Result<Tensor> loaded = LoadTensor(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(AlmostEqual(loaded.value(), x, 0.0));
  std::remove(path.c_str());
}

TEST(TensorIoTest, MissingFileReported) {
  Result<Tensor> r = LoadTensor("/nonexistent/path/file.dtnsr");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(TensorIoTest, CorruptMagicRejected) {
  const std::string path = ::testing::TempDir() + "/bad.dtnsr";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOTMAGIC", 1, 8, f);
  std::fclose(f);
  Result<Tensor> r = LoadTensor(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(TensorIoTest, TruncatedPayloadRejected) {
  Tensor x = MakeLowRankTensor({6, 5, 4}, {2, 2, 2}, 0.0, 7);
  const std::string path = ::testing::TempDir() + "/trunc.dtnsr";
  ASSERT_TRUE(SaveTensor(x, path).ok());
  // Truncate the file to half.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(truncate(path.c_str(), 100), 0);
  std::fclose(f);
  EXPECT_FALSE(LoadTensor(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dtucker
