// Property-based identity tests for the tensor algebra, swept across
// orders and shapes. These are the invariants the solvers silently rely
// on; a regression in any kernel shows up here first.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/qr.h"
#include "tensor/tensor_ops.h"

namespace dtucker {
namespace {

class ShapeSweepTest
    : public ::testing::TestWithParam<std::vector<Index>> {};

TEST_P(ShapeSweepTest, UnfoldingPreservesNorm) {
  Rng rng(1);
  Tensor x = Tensor::GaussianRandom(GetParam(), rng);
  for (Index n = 0; n < x.order(); ++n) {
    EXPECT_NEAR(Unfold(x, n).SquaredNorm(), x.SquaredNorm(),
                1e-10 * x.SquaredNorm())
        << "mode " << n;
  }
}

TEST_P(ShapeSweepTest, OrthogonalModeProductPreservesNorm) {
  // X x_n Q^T with square orthogonal Q is an isometry.
  Rng rng(2);
  Tensor x = Tensor::GaussianRandom(GetParam(), rng);
  for (Index n = 0; n < x.order(); ++n) {
    Matrix q = QrOrthonormalize(
        Matrix::GaussianRandom(x.dim(n), x.dim(n), rng));
    Tensor y = ModeProduct(x, q, n, Trans::kYes);
    EXPECT_NEAR(y.SquaredNorm(), x.SquaredNorm(), 1e-9 * x.SquaredNorm())
        << "mode " << n;
    // And invertible: contracting back recovers X.
    Tensor back = ModeProduct(y, q, n, Trans::kNo);
    EXPECT_TRUE(AlmostEqual(back, x, 1e-9)) << "mode " << n;
  }
}

TEST_P(ShapeSweepTest, ModeProductAdjointIdentity) {
  // <X x_n A, Y> = <X, Y x_n A^T> (A: J x I_n).
  Rng rng(3);
  Tensor x = Tensor::GaussianRandom(GetParam(), rng);
  for (Index n = 0; n < x.order(); ++n) {
    const Index j = 3;
    Matrix a = Matrix::GaussianRandom(j, x.dim(n), rng);
    std::vector<Index> y_shape = x.shape();
    y_shape[static_cast<std::size_t>(n)] = j;
    Tensor y = Tensor::GaussianRandom(y_shape, rng);
    const double lhs = InnerProduct(ModeProduct(x, a, n), y);
    const double rhs = InnerProduct(x, ModeProduct(y, a.Transposed(), n));
    EXPECT_NEAR(lhs, rhs, 1e-8 * (std::fabs(lhs) + 1)) << "mode " << n;
  }
}

TEST_P(ShapeSweepTest, PermutationIsNormPreservingBijection) {
  Rng rng(4);
  Tensor x = Tensor::GaussianRandom(GetParam(), rng);
  // Reverse-mode permutation and its inverse.
  std::vector<Index> perm(static_cast<std::size_t>(x.order()));
  for (Index k = 0; k < x.order(); ++k) {
    perm[static_cast<std::size_t>(k)] = x.order() - 1 - k;
  }
  Tensor p = x.Permuted(perm);
  EXPECT_NEAR(p.SquaredNorm(), x.SquaredNorm(), 1e-12 * x.SquaredNorm());
  EXPECT_TRUE(AlmostEqual(p.Permuted(perm), x, 0.0));  // Self-inverse here.
}

TEST_P(ShapeSweepTest, UnfoldKroneckerContractionIdentity) {
  // (X x_{k != n} A_k)_(n) = X_(n) * Kron(descending A_k)^T for every n.
  Rng rng(6);
  Tensor x = Tensor::GaussianRandom(GetParam(), rng);
  if (x.order() < 3) GTEST_SKIP();
  std::vector<Matrix> mats;
  for (Index k = 0; k < x.order(); ++k) {
    mats.push_back(Matrix::GaussianRandom(2, x.dim(k), rng));
  }
  for (Index n = 0; n < x.order(); ++n) {
    Tensor y = x;
    for (Index k = 0; k < x.order(); ++k) {
      if (k != n) y = ModeProduct(y, mats[static_cast<std::size_t>(k)], k);
    }
    // Kron in descending mode order excluding n.
    Matrix kron;
    bool first = true;
    for (Index k = x.order() - 1; k >= 0; --k) {
      if (k == n) continue;
      kron = first ? mats[static_cast<std::size_t>(k)]
                   : Kronecker(kron, mats[static_cast<std::size_t>(k)]);
      first = false;
    }
    Matrix rhs = MultiplyNT(Unfold(x, n), kron);
    EXPECT_TRUE(AlmostEqual(Unfold(y, n), rhs, 1e-8)) << "mode " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeSweepTest,
    ::testing::Values(std::vector<Index>{7, 5},
                      std::vector<Index>{4, 5, 6},
                      std::vector<Index>{6, 4, 2, 3},
                      std::vector<Index>{3, 2, 2, 2, 3},
                      std::vector<Index>{1, 5, 4},
                      std::vector<Index>{5, 1, 4}));

TEST(IdentityTest, KroneckerTransposeDistributes) {
  Rng rng(7);
  Matrix a = Matrix::GaussianRandom(3, 4, rng);
  Matrix b = Matrix::GaussianRandom(2, 5, rng);
  EXPECT_TRUE(AlmostEqual(Kronecker(a, b).Transposed(),
                          Kronecker(a.Transposed(), b.Transposed()), 1e-12));
}

TEST(IdentityTest, KroneckerNormMultiplies) {
  Rng rng(8);
  Matrix a = Matrix::GaussianRandom(3, 4, rng);
  Matrix b = Matrix::GaussianRandom(2, 5, rng);
  EXPECT_NEAR(Kronecker(a, b).FrobeniusNorm(),
              a.FrobeniusNorm() * b.FrobeniusNorm(), 1e-10);
}

}  // namespace
}  // namespace dtucker
