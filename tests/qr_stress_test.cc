// Stress tests for the Householder QR: orthogonality and residual bounds
// across tall/wide/square/rank-deficient shapes (including
// power-of-two-plus-one sizes), bitwise determinism of the factorization —
// and of the rSVD built on it — across BLAS thread counts, and
// column-sweep triangular-solve round trips. Runs under both `ctest -L
// tsan` (-DDTUCKER_SANITIZE=thread) and `ctest -L asan`
// (-DDTUCKER_SANITIZE=address).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "rsvd/rsvd.h"

namespace dtucker {
namespace {

// ||Q^T Q - I||_max.
double OrthogonalityError(const Matrix& q) {
  Matrix gram(q.cols(), q.cols());
  Gemm(Trans::kYes, Trans::kNo, 1.0, q, q, 0.0, &gram);
  for (Index j = 0; j < gram.cols(); ++j) gram(j, j) -= 1.0;
  return gram.MaxAbs();
}

// ||Q R - A||_max.
double ResidualError(const Matrix& q, const Matrix& r, const Matrix& a) {
  Matrix qr = a;
  Gemm(Trans::kNo, Trans::kNo, 1.0, q, r, -1.0, &qr);
  return qr.MaxAbs();
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) {
      if (a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

struct Shape {
  Index m, n;
};

class QrStressTest : public ::testing::Test {
 protected:
  void TearDown() override { SetBlasThreads(1); }
};

// Tall, square and wide shapes, with trailing columns beyond min(m, n)
// for the wide ones, and power-of-two-plus-one sizes that keep column
// lengths off every alignment boundary of the level-1 kernels.
const Shape kShapes[] = {
    {64, 64},   {65, 33},    {128, 65},  {257, 129}, {513, 64},
    {1025, 14}, {1025, 129}, {100, 300}, {65, 257},  {300, 300},
};

TEST_F(QrStressTest, FactorsAccurateAcrossShapes) {
  Rng rng(7);
  for (const Shape& s : kShapes) {
    Matrix a = Matrix::GaussianRandom(s.m, s.n, rng);
    QrResult qr = ThinQr(a);
    const Index p = std::min(s.m, s.n);
    ASSERT_EQ(qr.q.rows(), s.m);
    ASSERT_EQ(qr.q.cols(), p);
    ASSERT_EQ(qr.r.rows(), p);
    ASSERT_EQ(qr.r.cols(), s.n);
    EXPECT_LT(OrthogonalityError(qr.q), 1e-12)
        << "shape " << s.m << "x" << s.n;
    EXPECT_LT(ResidualError(qr.q, qr.r, a), 1e-10 * std::sqrt(double(s.m)))
        << "shape " << s.m << "x" << s.n;
    // R upper triangular.
    for (Index j = 0; j < qr.r.cols(); ++j) {
      for (Index i = j + 1; i < qr.r.rows(); ++i) {
        ASSERT_EQ(qr.r(i, j), 0.0);
      }
    }
  }
}

TEST_F(QrStressTest, RankDeficientColumnsStayOrthonormal) {
  Rng rng(17);
  Matrix a = Matrix::GaussianRandom(200, 40, rng);
  // Duplicate and zero out columns: reflectors with tau = 0 must not
  // contaminate the formed Q.
  for (Index i = 0; i < 200; ++i) {
    a(i, 7) = a(i, 3);
    a(i, 21) = 2.0 * a(i, 5);
    a(i, 33) = 0.0;
  }
  Matrix q = QrOrthonormalize(a);
  EXPECT_LT(OrthogonalityError(q), 1e-12);
  QrResult qr = ThinQr(a);
  EXPECT_LT(ResidualError(qr.q, qr.r, a), 1e-10);
}

TEST_F(QrStressTest, ZeroMatrix) {
  Matrix a(300, 48);
  QrResult qr = ThinQr(a);
  EXPECT_LT(ResidualError(qr.q, qr.r, a), 1e-14);
  for (Index j = 0; j < qr.r.cols(); ++j) {
    for (Index i = 0; i < qr.r.rows(); ++i) ASSERT_EQ(qr.r(i, j), 0.0);
  }
}

// The factorization must be bit-identical whatever the BLAS thread count.
TEST_F(QrStressTest, ThreadCountDoesNotChangeBits) {
  Rng rng(19);
  Matrix a = Matrix::GaussianRandom(1025, 96, rng);
  SetBlasThreads(1);
  QrResult serial = ThinQr(a);
  SetBlasThreads(4);
  QrResult threaded = ThinQr(a);
  SetBlasThreads(1);
  EXPECT_TRUE(BitwiseEqual(serial.q, threaded.q));
  EXPECT_TRUE(BitwiseEqual(serial.r, threaded.r));
}

TEST_F(QrStressTest, RandomizedSvdThreadCountDoesNotChangeBits) {
  Rng rng(23);
  Matrix a = Matrix::GaussianRandom(400, 300, rng);
  RsvdOptions options;
  options.rank = 16;
  options.oversampling = 8;
  options.power_iterations = 2;
  SetBlasThreads(1);
  SvdResult serial = RandomizedSvd(a, options);
  SetBlasThreads(4);
  SvdResult threaded = RandomizedSvd(a, options);
  SetBlasThreads(1);
  EXPECT_TRUE(BitwiseEqual(serial.u, threaded.u));
  EXPECT_TRUE(BitwiseEqual(serial.v, threaded.v));
  ASSERT_EQ(serial.s.size(), threaded.s.size());
  for (std::size_t i = 0; i < serial.s.size(); ++i) {
    EXPECT_EQ(serial.s[i], threaded.s[i]);
  }
}

// Round-trip the column-sweep triangular solves against R from a real
// factorization: x = R^{-1} (R x0) must recover x0.
TEST_F(QrStressTest, TriangularSolvesRoundTrip) {
  Rng rng(29);
  Matrix a = Matrix::GaussianRandom(120, 48, rng);
  QrResult qr = ThinQr(a);
  Matrix r = qr.r.Block(0, 0, 48, 48);
  Matrix x0 = Matrix::GaussianRandom(48, 5, rng);
  Matrix rhs(48, 5);
  Gemm(Trans::kNo, Trans::kNo, 1.0, r, x0, 0.0, &rhs);
  Matrix x = SolveUpperTriangular(r, rhs);
  EXPECT_TRUE(AlmostEqual(x, x0, 1e-8));

  Matrix l = r.Transposed();
  Gemm(Trans::kNo, Trans::kNo, 1.0, l, x0, 0.0, &rhs);
  x = SolveLowerTriangular(l, rhs);
  EXPECT_TRUE(AlmostEqual(x, x0, 1e-8));
}

}  // namespace
}  // namespace dtucker
