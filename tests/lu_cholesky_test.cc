#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"

namespace dtucker {
namespace {

Matrix RandomSpd(Index n, uint64_t seed) {
  Rng rng(seed);
  Matrix a = Matrix::GaussianRandom(n, n, rng);
  Matrix spd = Gram(a);  // A^T A is PSD; add a ridge to make it PD.
  for (Index i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

TEST(CholeskyTest, FactorizationReconstructs) {
  Matrix a = RandomSpd(8, 1);
  Result<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(AlmostEqual(MultiplyNT(l.value(), l.value()), a, 1e-9));
  // Lower triangular.
  for (Index j = 0; j < 8; ++j) {
    for (Index i = 0; i < j; ++i) EXPECT_EQ(l.value()(i, j), 0.0);
  }
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix a({{1, 0}, {0, -1}});
  Result<Matrix> l = Cholesky(a);
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(l.status().code(), StatusCode::kNumericalError);
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_FALSE(Cholesky(Matrix(2, 3)).ok());
}

TEST(CholeskyTest, SolveSpdRoundTrip) {
  Matrix a = RandomSpd(10, 2);
  Rng rng(3);
  Matrix x_true = Matrix::GaussianRandom(10, 3, rng);
  Matrix b = Multiply(a, x_true);
  Result<Matrix> x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(AlmostEqual(x.value(), x_true, 1e-8));
}

TEST(LuTest, SolveRoundTrip) {
  Rng rng(4);
  Matrix a = Matrix::GaussianRandom(12, 12, rng);
  Matrix x_true = Matrix::GaussianRandom(12, 2, rng);
  Matrix b = Multiply(a, x_true);
  Result<Matrix> x = SolveLu(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(AlmostEqual(x.value(), x_true, 1e-8));
}

TEST(LuTest, SolveNeedsPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a({{0, 1}, {1, 0}});
  Matrix b({{2}, {3}});
  Result<Matrix> x = SolveLu(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()(0, 0), 3.0, 1e-14);
  EXPECT_NEAR(x.value()(1, 0), 2.0, 1e-14);
}

TEST(LuTest, SingularMatrixIsReported) {
  Matrix a({{1, 2}, {2, 4}});
  Result<Matrix> x = SolveLu(a, Matrix::Identity(2));
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kNumericalError);
}

}  // namespace
}  // namespace dtucker
