#include "linalg/qr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "linalg/blas.h"

namespace dtucker {
namespace {

// Property harness across shapes: A = QR, Q^T Q = I, R upper triangular.
struct QrCase {
  Index m, n;
};

class QrParamTest : public ::testing::TestWithParam<QrCase> {};

TEST_P(QrParamTest, FactorsSatisfyDefiningProperties) {
  const QrCase c = GetParam();
  Rng rng(11 + c.m * 31 + c.n);
  Matrix a = Matrix::GaussianRandom(c.m, c.n, rng);
  QrResult qr = ThinQr(a);

  const Index p = std::min(c.m, c.n);
  ASSERT_EQ(qr.q.rows(), c.m);
  ASSERT_EQ(qr.q.cols(), p);
  ASSERT_EQ(qr.r.rows(), p);
  ASSERT_EQ(qr.r.cols(), c.n);

  // Q^T Q = I.
  EXPECT_TRUE(AlmostEqual(MultiplyTN(qr.q, qr.q), Matrix::Identity(p), 1e-10));
  // Q R = A.
  EXPECT_TRUE(AlmostEqual(Multiply(qr.q, qr.r), a, 1e-10));
  // R upper triangular.
  for (Index j = 0; j < qr.r.cols(); ++j) {
    for (Index i = j + 1; i < qr.r.rows(); ++i) EXPECT_EQ(qr.r(i, j), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrParamTest,
                         ::testing::Values(QrCase{1, 1}, QrCase{5, 5},
                                           QrCase{10, 3}, QrCase{200, 12},
                                           QrCase{3, 10}, QrCase{7, 50},
                                           QrCase{64, 64}));

TEST(QrTest, OrthonormalizeRankDeficient) {
  // Two identical columns: Q must still have orthonormal columns.
  Matrix a(6, 2);
  Rng rng(3);
  for (Index i = 0; i < 6; ++i) {
    a(i, 0) = rng.Gaussian();
    a(i, 1) = a(i, 0);
  }
  Matrix q = QrOrthonormalize(a);
  EXPECT_TRUE(AlmostEqual(MultiplyTN(q, q), Matrix::Identity(2), 1e-10));
}

TEST(QrTest, ZeroMatrixDoesNotCrash) {
  Matrix a = Matrix::Zero(5, 3);
  QrResult qr = ThinQr(a);
  EXPECT_TRUE(AlmostEqual(Multiply(qr.q, qr.r), a, 1e-12));
}

TEST(QrTest, SolveUpperTriangular) {
  Matrix r({{2, 1, 1}, {0, 3, 2}, {0, 0, 4}});
  Rng rng(5);
  Matrix x_true = Matrix::GaussianRandom(3, 2, rng);
  Matrix b = Multiply(r, x_true);
  Matrix x = SolveUpperTriangular(r, b);
  EXPECT_TRUE(AlmostEqual(x, x_true, 1e-12));
}

TEST(QrTest, SolveLowerTriangular) {
  Matrix l({{2, 0, 0}, {1, 3, 0}, {1, 2, 4}});
  Rng rng(6);
  Matrix x_true = Matrix::GaussianRandom(3, 2, rng);
  Matrix b = Multiply(l, x_true);
  Matrix x = SolveLowerTriangular(l, b);
  EXPECT_TRUE(AlmostEqual(x, x_true, 1e-12));
}

TEST(QrTest, LeastSquaresViaQr) {
  // Overdetermined consistent system recovered exactly.
  Rng rng(7);
  Matrix a = Matrix::GaussianRandom(30, 4, rng);
  Matrix x_true = Matrix::GaussianRandom(4, 1, rng);
  Matrix b = Multiply(a, x_true);
  QrResult qr = ThinQr(a);
  Matrix x = SolveUpperTriangular(qr.r, MultiplyTN(qr.q, b));
  EXPECT_TRUE(AlmostEqual(x, x_true, 1e-10));
}

// An m x k panel U diag(sigma) W^T with orthonormal U and W and sigma
// graded geometrically from 1 down to 1 / kappa.
Matrix GradedPanel(Index m, Index k, double kappa, uint64_t seed) {
  Rng rng(seed);
  Matrix u = QrOrthonormalize(Matrix::GaussianRandom(m, k, rng));
  Matrix w = QrOrthonormalize(Matrix::GaussianRandom(k, k, rng));
  for (Index j = 0; j < k; ++j) {
    const double sigma =
        std::pow(kappa, -static_cast<double>(j) / static_cast<double>(k - 1));
    for (Index i = 0; i < m; ++i) u(i, j) *= sigma;
  }
  return MultiplyNT(u, w);
}

double OrthonormalityError(const Matrix& q) {
  return (MultiplyTN(q, q) - Matrix::Identity(q.cols())).FrobeniusNorm();
}

TEST(CholeskyQr2Test, WellConditionedPanelsStayOnTheCholeskyPath) {
  const Index k = 15;
  for (Index m : {80, 256, 1024}) {
    for (double kappa : {1.0, 1e4, 1e6}) {
      const Matrix y = GradedPanel(m, k, kappa, 7);
      Matrix q = Matrix::Uninitialized(m, k);
      Matrix r = Matrix::Uninitialized(k, k);
      EXPECT_TRUE(CholeskyQr2Raw(y.data(), m, k, q.data(), r.data()))
          << "m=" << m << " kappa=" << kappa;
      EXPECT_LE(OrthonormalityError(q), 1e-14 * k)
          << "m=" << m << " kappa=" << kappa;
      EXPECT_LE((Multiply(q, r) - y).FrobeniusNorm(), 1e-14 * y.FrobeniusNorm())
          << "m=" << m << " kappa=" << kappa;
      for (Index j = 0; j < k; ++j) {
        for (Index i = j + 1; i < k; ++i) EXPECT_EQ(r(i, j), 0.0);
      }
    }
  }
}

TEST(CholeskyQr2Test, IllConditionedAndDeficientPanelsFallBackToHouseholder) {
  const Index m = 256;
  const Index k = 15;
  std::vector<Matrix> panels = {GradedPanel(m, k, 1e9, 8),
                                GradedPanel(m, k, 1e14, 9)};
  Rng rng(10);
  Matrix low = Multiply(Matrix::GaussianRandom(m, 6, rng),
                        Matrix::GaussianRandom(6, k, rng));  // Rank 6.
  panels.push_back(low);
  Matrix zero_col = Matrix::GaussianRandom(m, k, rng);
  for (Index i = 0; i < m; ++i) zero_col(i, 4) = 0.0;
  panels.push_back(zero_col);
  panels.push_back(Matrix(m, k));  // All zero.
  for (std::size_t t = 0; t < panels.size(); ++t) {
    const Matrix& y = panels[t];
    Matrix q = Matrix::Uninitialized(m, k);
    Matrix r = Matrix::Uninitialized(k, k);
    EXPECT_FALSE(CholeskyQr2Raw(y.data(), m, k, q.data(), r.data()))
        << "panel " << t;
    EXPECT_LE(OrthonormalityError(q), 1e-14 * k) << "panel " << t;
    EXPECT_LE((Multiply(q, r) - y).FrobeniusNorm(),
              1e-13 * std::max(1.0, y.FrobeniusNorm()))
        << "panel " << t;
    // Without R the fallback still returns an orthonormal Q.
    Matrix q_only = Matrix::Uninitialized(m, k);
    EXPECT_FALSE(CholeskyQr2Raw(y.data(), m, k, q_only.data(), nullptr));
    EXPECT_LE(OrthonormalityError(q_only), 1e-14 * k) << "panel " << t;
  }
}

TEST(CholeskyQr2Test, NonFiniteGramTakesTheFallback) {
  Rng rng(11);
  Matrix y = Matrix::GaussianRandom(40, 5, rng);
  y(3, 2) = std::numeric_limits<double>::infinity();
  Matrix q = Matrix::Uninitialized(40, 5);
  EXPECT_FALSE(CholeskyQr2Raw(y.data(), 40, 5, q.data(), nullptr));
}

}  // namespace
}  // namespace dtucker
