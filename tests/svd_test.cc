#include "linalg/svd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "linalg/blas.h"

namespace dtucker {
namespace {

struct SvdCase {
  Index m, n;
};

class SvdParamTest : public ::testing::TestWithParam<SvdCase> {};

TEST_P(SvdParamTest, SatisfiesDefiningProperties) {
  const SvdCase c = GetParam();
  Rng rng(101 + c.m * 17 + c.n);
  Matrix a = Matrix::GaussianRandom(c.m, c.n, rng);
  SvdResult svd = ThinSvd(a);

  const Index p = std::min(c.m, c.n);
  ASSERT_EQ(svd.u.cols(), p);
  ASSERT_EQ(svd.v.cols(), p);
  ASSERT_EQ(static_cast<Index>(svd.s.size()), p);

  // Orthonormal factors.
  EXPECT_TRUE(AlmostEqual(MultiplyTN(svd.u, svd.u), Matrix::Identity(p),
                          1e-9));
  EXPECT_TRUE(AlmostEqual(MultiplyTN(svd.v, svd.v), Matrix::Identity(p),
                          1e-9));
  // Descending nonnegative singular values.
  for (Index i = 0; i + 1 < p; ++i) {
    EXPECT_GE(svd.s[static_cast<std::size_t>(i)],
              svd.s[static_cast<std::size_t>(i + 1)]);
  }
  EXPECT_GE(svd.s.back(), 0.0);
  // Exact reconstruction (full rank p factors of a generic matrix).
  EXPECT_TRUE(AlmostEqual(svd.Reconstruct(), a, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdParamTest,
                         ::testing::Values(SvdCase{1, 1}, SvdCase{4, 4},
                                           SvdCase{12, 12}, SvdCase{50, 8},
                                           SvdCase{8, 50}, SvdCase{200, 10},
                                           SvdCase{10, 200},
                                           SvdCase{33, 33}));

TEST(SvdTest, KnownDiagonal) {
  Matrix a = Matrix::Diagonal({3, 1, 2});
  SvdResult svd = ThinSvd(a);
  EXPECT_NEAR(svd.s[0], 3.0, 1e-12);
  EXPECT_NEAR(svd.s[1], 2.0, 1e-12);
  EXPECT_NEAR(svd.s[2], 1.0, 1e-12);
}

TEST(SvdTest, SingularValuesMatchFrobeniusNorm) {
  Rng rng(5);
  Matrix a = Matrix::GaussianRandom(20, 9, rng);
  SvdResult svd = ThinSvd(a);
  double sum_sq = 0;
  for (double s : svd.s) sum_sq += s * s;
  EXPECT_NEAR(sum_sq, a.SquaredNorm(), 1e-8 * a.SquaredNorm());
}

TEST(SvdTest, RankDeficientMatrixHasZeroTail) {
  // Rank-2 matrix of size 6x4.
  Rng rng(6);
  Matrix b = Matrix::GaussianRandom(6, 2, rng);
  Matrix c = Matrix::GaussianRandom(2, 4, rng);
  Matrix a = Multiply(b, c);
  SvdResult svd = ThinSvd(a);
  EXPECT_GT(svd.s[1], 1e-8);
  EXPECT_NEAR(svd.s[2], 0.0, 1e-9);
  EXPECT_NEAR(svd.s[3], 0.0, 1e-9);
  EXPECT_TRUE(AlmostEqual(svd.Reconstruct(), a, 1e-9));
}

TEST(SvdTest, TruncationGivesBestLowRankError) {
  // Eckart-Young: truncated SVD residual equals the tail energy.
  Rng rng(7);
  Matrix a = Matrix::GaussianRandom(30, 20, rng);
  SvdResult svd = ThinSvd(a);
  const Index k = 5;
  double tail = 0;
  for (std::size_t i = k; i < svd.s.size(); ++i) tail += svd.s[i] * svd.s[i];
  SvdResult trunc = svd;
  trunc.Truncate(k);
  Matrix residual = a - trunc.Reconstruct();
  EXPECT_NEAR(residual.SquaredNorm(), tail, 1e-6 * a.SquaredNorm());
}

TEST(SvdTest, LeadingLeftSingularVectors) {
  Rng rng(8);
  Matrix a = Matrix::GaussianRandom(40, 10, rng);
  Matrix u = LeadingLeftSingularVectors(a, 3);
  ASSERT_EQ(u.rows(), 40);
  ASSERT_EQ(u.cols(), 3);
  EXPECT_TRUE(AlmostEqual(MultiplyTN(u, u), Matrix::Identity(3), 1e-9));
  // They span the same subspace as the full SVD's first 3 columns:
  // projector difference should vanish.
  SvdResult svd = ThinSvd(a);
  Matrix u3 = svd.u.LeftCols(3);
  Matrix p1 = MultiplyNT(u, u);
  Matrix p2 = MultiplyNT(u3, u3);
  EXPECT_TRUE(AlmostEqual(p1, p2, 1e-7));
}

TEST(SvdTest, EmptyAndDegenerate) {
  SvdResult svd = ThinSvd(Matrix(0, 0));
  EXPECT_EQ(svd.s.size(), 0u);
  Matrix zero = Matrix::Zero(4, 3);
  SvdResult z = ThinSvd(zero);
  for (double s : z.s) EXPECT_EQ(s, 0.0);
}

TEST(SvdTest, ExtremeMagnitudesAreExactlyScaled) {
  // ThinSvd runs at a power-of-two scale: A scaled by 2^e gives the same U
  // and V bits and singular values scaled by exactly 2^e, including at
  // magnitudes where the Jacobi sweep's squared column norms would leave
  // double's range.
  Rng rng(10);
  for (const Matrix& a : {Matrix::GaussianRandom(20, 16, rng),
                          Matrix::GaussianRandom(16, 20, rng)}) {
    const SvdResult ref = ThinSvd(a);
    for (int e : {-500, 256, 300}) {
      const SvdResult svd = ThinSvd(a * std::ldexp(1.0, e));
      ASSERT_EQ(svd.s.size(), ref.s.size());
      for (std::size_t j = 0; j < ref.s.size(); ++j) {
        EXPECT_EQ(svd.s[j], std::ldexp(ref.s[j], e)) << "e=" << e;
      }
      EXPECT_TRUE(AlmostEqual(svd.u, ref.u, 0.0)) << "e=" << e;
      EXPECT_TRUE(AlmostEqual(svd.v, ref.v, 0.0)) << "e=" << e;
    }
  }
}

TEST(SvdTest, UTimesSMatchesManualScaling) {
  Rng rng(9);
  Matrix a = Matrix::GaussianRandom(10, 4, rng);
  SvdResult svd = ThinSvd(a);
  Matrix us = svd.UTimesS();
  for (Index j = 0; j < 4; ++j) {
    for (Index i = 0; i < 10; ++i) {
      EXPECT_NEAR(us(i, j), svd.u(i, j) * svd.s[static_cast<std::size_t>(j)],
                  1e-12);
    }
  }
}

// A random n x n matrix with singular values spread over `spread`.
Matrix GradedNeighbour(Index n, double spread, uint64_t seed, Rng* rng) {
  Rng local(seed + rng->NextU64() % 7);
  Matrix a = Matrix::GaussianRandom(n, n, local);
  for (Index j = 0; j < n; ++j) {
    const double scale =
        std::pow(spread, -static_cast<double>(j) / static_cast<double>(n - 1));
    for (Index i = 0; i < n; ++i) a(i, j) *= scale;
  }
  return a;
}

// Interleaves per-lane n x n matrices into BatchedJacobiSvd's layout.
std::vector<double> Interleave(const std::vector<Matrix>& lanes, Index n,
                               int width = kJacobiLanes) {
  std::vector<double> w(static_cast<std::size_t>(n * n * width), 0.0);
  for (int l = 0; l < width; ++l) {
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < n; ++i) {
        w[static_cast<std::size_t>((j * n + i) * width + l)] =
            l < static_cast<int>(lanes.size())
                ? lanes[static_cast<std::size_t>(l)](i, j)
                : (i == j ? 1.0 : 0.0);
      }
    }
  }
  return w;
}

Matrix LaneMatrix(const std::vector<double>& w, Index n, int lane,
                  int width = kJacobiLanes) {
  Matrix m(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      m(i, j) = w[static_cast<std::size_t>((j * n + i) * width + lane)];
    }
  }
  return m;
}

TEST(BatchedJacobiSvdTest, EachLaneIsAnSvdOfItsMatrix) {
  const Index n = 15;
  Rng rng(21);
  std::vector<Matrix> cores;
  for (int l = 0; l < kJacobiLanes; ++l) {
    cores.push_back(Matrix::GaussianRandom(n, n, rng) * std::pow(10.0, l - 3));
  }
  std::vector<double> w = Interleave(cores, n);
  std::vector<double> v(w.size());
  std::vector<double> s(static_cast<std::size_t>(n * kJacobiLanes));
  BatchedJacobiSvd(n, w.data(), v.data(), s.data());
  for (int l = 0; l < kJacobiLanes; ++l) {
    const Matrix u = LaneMatrix(w, n, l);
    const Matrix vl = LaneMatrix(v, n, l);
    const std::vector<double> sl(s.begin() + l * n, s.begin() + (l + 1) * n);
    const SvdResult ref = ThinSvd(cores[static_cast<std::size_t>(l)]);
    for (Index j = 0; j < n; ++j) {
      EXPECT_NEAR(sl[static_cast<std::size_t>(j)],
                  ref.s[static_cast<std::size_t>(j)], 1e-12 * ref.s[0]);
      if (j + 1 < n) {
        EXPECT_GE(sl[j], sl[j + 1]);
      }
    }
    const SvdResult mine{u, sl, vl};
    EXPECT_TRUE(AlmostEqual(mine.Reconstruct(),
                            cores[static_cast<std::size_t>(l)],
                            1e-12 * ref.s[0]))
        << "lane " << l;
    EXPECT_TRUE(AlmostEqual(MultiplyTN(u, u), Matrix::Identity(n), 1e-12));
    EXPECT_TRUE(AlmostEqual(MultiplyTN(vl, vl), Matrix::Identity(n), 1e-12));
  }
}

TEST(BatchedJacobiSvdTest, LanesAreIndependent) {
  // One matrix solved alone (identity padding) and beside seven others, in
  // every lane: the bits must not move.
  const Index n = 12;
  Rng rng(22);
  const Matrix target = Matrix::GaussianRandom(n, n, rng);
  std::vector<double> w_alone = Interleave({target}, n);
  std::vector<double> v_alone(w_alone.size());
  std::vector<double> s_alone(static_cast<std::size_t>(n * kJacobiLanes));
  BatchedJacobiSvd(n, w_alone.data(), v_alone.data(), s_alone.data());
  for (int lane = 0; lane < kJacobiLanes; ++lane) {
    std::vector<Matrix> cores;
    for (int l = 0; l < kJacobiLanes; ++l) {
      // Neighbours that need many more sweeps than the target.
      cores.push_back(l == lane ? target
                                : GradedNeighbour(n, 1e12, 100 + l, &rng));
    }
    std::vector<double> w = Interleave(cores, n);
    std::vector<double> v(w.size());
    std::vector<double> s(static_cast<std::size_t>(n * kJacobiLanes));
    BatchedJacobiSvd(n, w.data(), v.data(), s.data());
    for (Index j = 0; j < n; ++j) {
      EXPECT_EQ(s[static_cast<std::size_t>(lane * n + j)],
                s_alone[static_cast<std::size_t>(j)]);
    }
    const Matrix u = LaneMatrix(w, n, lane);
    const Matrix u0 = LaneMatrix(w_alone, n, 0);
    const Matrix vl = LaneMatrix(v, n, lane);
    const Matrix v0 = LaneMatrix(v_alone, n, 0);
    EXPECT_TRUE(AlmostEqual(u, u0, 0.0)) << "lane " << lane;
    EXPECT_TRUE(AlmostEqual(vl, v0, 0.0)) << "lane " << lane;
  }
}

TEST(BatchedJacobiSvdTest, NarrowWidthGivesTheWideBits) {
  const Index n = 15;
  Rng rng(24);
  const Matrix a = Matrix::GaussianRandom(n, n, rng);
  const Matrix b = Matrix::GaussianRandom(n, n, rng) * 1e-3;
  std::vector<double> wide = Interleave({a, b}, n);
  std::vector<double> wide_v(wide.size());
  std::vector<double> wide_s(static_cast<std::size_t>(n * kJacobiLanes));
  BatchedJacobiSvd(n, wide.data(), wide_v.data(), wide_s.data());
  std::vector<double> narrow = Interleave({a, b}, n, kJacobiNarrowLanes);
  std::vector<double> narrow_v(narrow.size());
  std::vector<double> narrow_s(
      static_cast<std::size_t>(n * kJacobiNarrowLanes));
  BatchedJacobiSvd(n, narrow.data(), narrow_v.data(), narrow_s.data(),
                   kJacobiNarrowLanes);
  for (int l = 0; l < kJacobiNarrowLanes; ++l) {
    for (Index j = 0; j < n; ++j) {
      EXPECT_EQ(narrow_s[static_cast<std::size_t>(l * n + j)],
                wide_s[static_cast<std::size_t>(l * n + j)]);
    }
    EXPECT_TRUE(AlmostEqual(LaneMatrix(narrow, n, l, kJacobiNarrowLanes),
                            LaneMatrix(wide, n, l), 0.0));
    EXPECT_TRUE(AlmostEqual(LaneMatrix(narrow_v, n, l, kJacobiNarrowLanes),
                            LaneMatrix(wide_v, n, l), 0.0));
  }
}

TEST(BatchedJacobiSvdTest, ExtremeMagnitudesAreExactlyScaled) {
  // Each lane runs at a power-of-two scale: a core scaled by 2^e gives the
  // same U and V bits and singular values scaled by exactly 2^e, at
  // magnitudes where the squared column norms would leave double's range.
  const Index n = 10;
  Rng rng(23);
  const Matrix core = Matrix::GaussianRandom(n, n, rng);
  std::vector<double> w0 = Interleave({core}, n);
  std::vector<double> v0(w0.size());
  std::vector<double> s0(static_cast<std::size_t>(n * kJacobiLanes));
  BatchedJacobiSvd(n, w0.data(), v0.data(), s0.data());
  for (int e : {-900, -500, 500, 900}) {
    std::vector<Matrix> scaled = {core * std::ldexp(1.0, e)};
    std::vector<double> w = Interleave(scaled, n);
    std::vector<double> v(w.size());
    std::vector<double> s(static_cast<std::size_t>(n * kJacobiLanes));
    BatchedJacobiSvd(n, w.data(), v.data(), s.data());
    for (Index j = 0; j < n; ++j) {
      EXPECT_EQ(s[static_cast<std::size_t>(j)],
                std::ldexp(s0[static_cast<std::size_t>(j)], e))
          << "e=" << e;
    }
    EXPECT_TRUE(AlmostEqual(LaneMatrix(w, n, 0), LaneMatrix(w0, n, 0), 0.0));
    EXPECT_TRUE(AlmostEqual(LaneMatrix(v, n, 0), LaneMatrix(v0, n, 0), 0.0));
  }
}

}  // namespace
}  // namespace dtucker
