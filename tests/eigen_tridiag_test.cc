#include "linalg/eigen_tridiag.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/blas.h"

namespace dtucker {
namespace {

Matrix RandomSymmetric(Index n, uint64_t seed) {
  Rng rng(seed);
  Matrix a = Matrix::GaussianRandom(n, n, rng);
  Matrix s(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
  }
  return s;
}

class EigenQrParamTest : public ::testing::TestWithParam<Index> {};

TEST_P(EigenQrParamTest, Reconstructs) {
  const Index n = GetParam();
  Matrix a = RandomSymmetric(n, 91 + static_cast<uint64_t>(n));
  Result<EigenSymResult> r = EigenSymQr(a);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const EigenSymResult& eig = r.value();

  EXPECT_TRUE(AlmostEqual(MultiplyTN(eig.vectors, eig.vectors),
                          Matrix::Identity(n), 1e-9));
  Matrix vd = eig.vectors;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      vd(i, j) *= eig.values[static_cast<std::size_t>(j)];
    }
  }
  EXPECT_TRUE(AlmostEqual(MultiplyNT(vd, eig.vectors), a,
                          1e-9 * (1 + a.MaxAbs()) * n));
  for (Index i = 0; i + 1 < n; ++i) {
    EXPECT_GE(eig.values[static_cast<std::size_t>(i)],
              eig.values[static_cast<std::size_t>(i + 1)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenQrParamTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60, 64, 120,
                                           200));

// A PSD Gram whose spectrum falls geometrically: A A^T of n x 300 Gaussian
// columns scaled by 0.9^j. Past j ~ 170 the eigenvalues drop below eps
// times the largest, where a deflation test relative to the neighbouring
// diagonal entries never fires; the QL iteration must still converge (so
// EigenSymFast never falls back to Jacobi on a Gram) and return an
// orthonormal basis that reconstructs the matrix.
class EigenQrGradedTest : public ::testing::TestWithParam<Index> {};

TEST_P(EigenQrGradedTest, ConvergesOnAGradedGram) {
  const Index n = GetParam();
  Rng rng(300 + static_cast<uint64_t>(n));
  Matrix a = Matrix::GaussianRandom(n, 300, rng);
  double scale = 1.0;
  for (Index j = 0; j < a.cols(); ++j, scale *= 0.9) {
    Scal(scale, a.col_data(j), n);
  }
  const Matrix g = MultiplyNT(a, a);
  Result<EigenSymResult> r = EigenSymQr(g);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const EigenSymResult& eig = r.value();
  EXPECT_TRUE(AlmostEqual(MultiplyTN(eig.vectors, eig.vectors),
                          Matrix::Identity(n), 1e-10));
  Matrix vd = eig.vectors;
  for (Index j = 0; j < n; ++j) {
    Scal(eig.values[static_cast<std::size_t>(j)], vd.col_data(j), n);
  }
  EXPECT_TRUE(AlmostEqual(MultiplyNT(vd, eig.vectors), g, 1e-12 * g.MaxAbs()));
  for (Index i = 0; i + 1 < n; ++i) {
    EXPECT_GE(eig.values[static_cast<std::size_t>(i)],
              eig.values[static_cast<std::size_t>(i + 1)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenQrGradedTest, ::testing::Values(200, 256));

TEST(EigenQrTest, AgreesWithJacobi) {
  Matrix a = RandomSymmetric(40, 92);
  Result<EigenSymResult> qr = EigenSymQr(a);
  ASSERT_TRUE(qr.ok());
  EigenSymResult jac = EigenSym(a);
  for (std::size_t i = 0; i < jac.values.size(); ++i) {
    EXPECT_NEAR(qr.value().values[i], jac.values[i],
                1e-9 * (1 + std::fabs(jac.values[0])));
  }
}

TEST(EigenQrTest, DiagonalInput) {
  Result<EigenSymResult> r = EigenSymQr(Matrix::Diagonal({3, 1, 4, 1, 5}));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().values[0], 5, 1e-12);
  EXPECT_NEAR(r.value().values[4], 1, 1e-12);
}

TEST(EigenQrTest, IndefiniteSpectrum) {
  Matrix a({{0, 2}, {2, 0}});
  Result<EigenSymResult> r = EigenSymQr(a);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().values[0], 2, 1e-12);
  EXPECT_NEAR(r.value().values[1], -2, 1e-12);
}

TEST(EigenQrTest, RejectsNonSquare) {
  EXPECT_FALSE(EigenSymQr(Matrix(3, 4)).ok());
}

TEST(EigenQrTest, DegenerateEigenvaluesStillOrthonormal) {
  // Identity has a fully degenerate spectrum.
  Result<EigenSymResult> r = EigenSymQr(Matrix::Identity(12));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(AlmostEqual(MultiplyTN(r.value().vectors, r.value().vectors),
                          Matrix::Identity(12), 1e-10));
  for (double v : r.value().values) EXPECT_NEAR(v, 1.0, 1e-12);
}

}  // namespace
}  // namespace dtucker
