#include "linalg/blas.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor_utils.h"

namespace dtucker {
namespace {

// Reference O(n^3) triple-loop multiply for cross-checking the blocked
// kernel.
Matrix NaiveMultiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (Index k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

TEST(BlasTest, MultiplySmallKnown) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix b({{5, 6}, {7, 8}});
  Matrix c = Multiply(a, b);
  EXPECT_TRUE(AlmostEqual(c, Matrix({{19, 22}, {43, 50}})));
}

TEST(BlasTest, MultiplyIdentityIsNoop) {
  Rng rng(1);
  Matrix a = Matrix::GaussianRandom(7, 5, rng);
  EXPECT_TRUE(AlmostEqual(Multiply(a, Matrix::Identity(5)), a));
  EXPECT_TRUE(AlmostEqual(Multiply(Matrix::Identity(7), a), a));
}

// Property sweep: the blocked GEMM agrees with the naive kernel for all
// transpose combinations across assorted shapes (including ones larger
// than the cache block size).
struct GemmCase {
  Index m, n, k;
};

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, AllTransposeCombosMatchNaive) {
  const GemmCase c = GetParam();
  Rng rng(42 + c.m + c.n + c.k);
  Matrix a = Matrix::GaussianRandom(c.m, c.k, rng);
  Matrix b = Matrix::GaussianRandom(c.k, c.n, rng);
  Matrix expected = NaiveMultiply(a, b);

  EXPECT_TRUE(AlmostEqual(Multiply(a, b), expected, 1e-9));
  EXPECT_TRUE(AlmostEqual(MultiplyTN(a.Transposed(), b), expected, 1e-9));
  EXPECT_TRUE(AlmostEqual(MultiplyNT(a, b.Transposed()), expected, 1e-9));
  EXPECT_TRUE(AlmostEqual(MultiplyTT(a.Transposed(), b.Transposed()),
                          expected, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParamTest,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{3, 5, 4}, GemmCase{5, 3, 9},
                      GemmCase{17, 13, 11}, GemmCase{64, 64, 64},
                      GemmCase{100, 3, 300}, GemmCase{3, 100, 300},
                      GemmCase{300, 5, 2}, GemmCase{129, 65, 257},
                      GemmCase{260, 7, 300}));

TEST(BlasTest, GemmAlphaBetaAccumulate) {
  Rng rng(7);
  Matrix a = Matrix::GaussianRandom(6, 4, rng);
  Matrix b = Matrix::GaussianRandom(4, 5, rng);
  Matrix c = Matrix::GaussianRandom(6, 5, rng);
  Matrix expected = c * 3.0 + NaiveMultiply(a, b) * 2.0;
  Gemm(Trans::kNo, Trans::kNo, 2.0, a, b, 3.0, &c);
  EXPECT_TRUE(AlmostEqual(c, expected, 1e-10));
}

TEST(BlasTest, GemmBetaZeroOverwritesGarbage) {
  Rng rng(8);
  Matrix a = Matrix::GaussianRandom(4, 4, rng);
  Matrix b = Matrix::GaussianRandom(4, 4, rng);
  Matrix c = Matrix::Constant(4, 4, std::numeric_limits<double>::quiet_NaN());
  Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c);
  EXPECT_TRUE(AlmostEqual(c, NaiveMultiply(a, b), 1e-10));
}

TEST(BlasTest, GemvBothTransposes) {
  Rng rng(9);
  Matrix a = Matrix::GaussianRandom(6, 4, rng);
  Matrix x = Matrix::GaussianRandom(4, 1, rng);
  Matrix y(6, 1);
  GemvRaw(Trans::kNo, 6, 4, 1.0, a.data(), 6, x.data(), 0.0, y.data());
  EXPECT_TRUE(AlmostEqual(y, NaiveMultiply(a, x), 1e-10));

  Matrix z = Matrix::GaussianRandom(6, 1, rng);
  Matrix w(4, 1);
  GemvRaw(Trans::kYes, 6, 4, 1.0, a.data(), 6, z.data(), 0.0, w.data());
  EXPECT_TRUE(AlmostEqual(w, NaiveMultiply(a.Transposed(), z), 1e-10));
}

TEST(BlasTest, DotAxpyScalNrm2) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(Dot(x.data(), y.data(), 5), 35.0);

  Axpy(2.0, x.data(), y.data(), 5);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[4], 11.0);

  Scal(0.5, x.data(), 5);
  EXPECT_DOUBLE_EQ(x[2], 1.5);

  std::vector<double> v = {3, 4};
  EXPECT_DOUBLE_EQ(Nrm2(v.data(), 2), 5.0);
}

TEST(BlasTest, Nrm2AvoidsOverflow) {
  std::vector<double> v = {1e200, 1e200};
  EXPECT_NEAR(Nrm2(v.data(), 2) / 1.4142135623730951e200, 1.0, 1e-12);
}

TEST(BlasTest, MaxAbsMatchesNaiveLoopOnSpecialValues) {
  // The split-accumulator MaxAbs must return exactly the bits of the one
  // std::max chain it replaced, for every length (vector body and scalar
  // tail) and wherever a +-0, NaN or +-inf sits.
  auto naive = [](const std::vector<double>& v) {
    double m = 0.0;
    for (double x : v) m = std::max(m, std::fabs(x));
    return m;
  };
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> specials = {0.0, -0.0, nan, -nan, inf, -inf};
  Rng rng(41);
  for (Index n = 0; n <= 37; ++n) {
    std::vector<double> base(static_cast<std::size_t>(n));
    for (double& x : base) x = rng.Gaussian();
    std::vector<std::vector<double>> inputs = {base};
    for (double special : specials) {
      inputs.emplace_back(static_cast<std::size_t>(n), special);
      for (Index pos = 0; pos < n; pos += 5) {
        std::vector<double> v = base;
        v[static_cast<std::size_t>(pos)] = special;
        inputs.push_back(v);
      }
    }
    for (const std::vector<double>& v : inputs) {
      const double want = naive(v);
      EXPECT_TRUE(same_bits(MaxAbs(v.data(), n), want)) << "n=" << n;
      if (n == 0) continue;
      Matrix m(n, 1);
      std::copy(v.begin(), v.end(), m.data());
      EXPECT_TRUE(same_bits(m.MaxAbs(), want)) << "matrix n=" << n;
      Tensor t({1, n});
      std::copy(v.begin(), v.end(), t.data());
      EXPECT_TRUE(same_bits(MaxAbs(t), want)) << "tensor n=" << n;
    }
  }
}

TEST(BlasTest, MaxAbsFiniteFlagsNanAndInfinityInOnePass) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(43);
  for (Index n = 1; n <= 37; ++n) {
    std::vector<double> v(static_cast<std::size_t>(n));
    for (double& x : v) x = rng.Gaussian() * 1e300;
    bool finite = false;
    const double m = MaxAbsFinite(v.data(), n, &finite);
    EXPECT_TRUE(finite) << "n=" << n;
    EXPECT_EQ(m, MaxAbs(v.data(), n));
    for (double special : {nan, -nan, inf, -inf}) {
      for (Index pos = 0; pos < n; pos += 4) {
        std::vector<double> w = v;
        w[static_cast<std::size_t>(pos)] = special;
        finite = true;
        MaxAbsFinite(w.data(), n, &finite);
        EXPECT_FALSE(finite) << "n=" << n << " pos=" << pos;
      }
    }
  }
}

TEST(BlasTest, GramMatchesExplicit) {
  Rng rng(10);
  Matrix a = Matrix::GaussianRandom(20, 6, rng);
  Matrix g = Gram(a);
  EXPECT_TRUE(AlmostEqual(g, MultiplyTN(a, a), 1e-10));
  // Symmetry is exact by construction.
  for (Index i = 0; i < 6; ++i) {
    for (Index j = 0; j < 6; ++j) EXPECT_EQ(g(i, j), g(j, i));
  }
}

}  // namespace
}  // namespace dtucker
