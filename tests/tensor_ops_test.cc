#include "tensor/tensor_ops.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dtucker {
namespace {

// Reference unfolding straight from the Kolda index formula.
Matrix NaiveUnfold(const Tensor& x, Index mode) {
  Index cols = 1;
  for (Index k = 0; k < x.order(); ++k) {
    if (k != mode) cols *= x.dim(k);
  }
  Matrix out(x.dim(mode), cols);
  std::vector<Index> idx(static_cast<std::size_t>(x.order()), 0);
  for (Index flat = 0; flat < x.size(); ++flat) {
    Index col = 0, mult = 1;
    for (Index k = 0; k < x.order(); ++k) {
      if (k == mode) continue;
      col += idx[static_cast<std::size_t>(k)] * mult;
      mult *= x.dim(k);
    }
    out(idx[static_cast<std::size_t>(mode)], col) = x.data()[flat];
    for (Index k = 0; k < x.order(); ++k) {
      auto& ik = idx[static_cast<std::size_t>(k)];
      if (++ik < x.dim(k)) break;
      ik = 0;
    }
  }
  return out;
}

TEST(TensorOpsTest, UnfoldMatchesNaiveAllModes3Order) {
  Rng rng(1);
  Tensor x = Tensor::GaussianRandom({3, 4, 5}, rng);
  for (Index n = 0; n < 3; ++n) {
    EXPECT_TRUE(AlmostEqual(Unfold(x, n), NaiveUnfold(x, n), 0.0))
        << "mode " << n;
  }
}

TEST(TensorOpsTest, UnfoldMatchesNaiveAllModes4Order) {
  Rng rng(2);
  Tensor x = Tensor::GaussianRandom({2, 3, 4, 5}, rng);
  for (Index n = 0; n < 4; ++n) {
    EXPECT_TRUE(AlmostEqual(Unfold(x, n), NaiveUnfold(x, n), 0.0))
        << "mode " << n;
  }
}

TEST(TensorOpsTest, FoldInvertsUnfold) {
  Rng rng(3);
  Tensor x = Tensor::GaussianRandom({4, 3, 6, 2}, rng);
  for (Index n = 0; n < 4; ++n) {
    Tensor back = Fold(Unfold(x, n), n, x.shape());
    EXPECT_TRUE(AlmostEqual(back, x, 0.0)) << "mode " << n;
  }
}

TEST(TensorOpsTest, ModeProductMatchesUnfoldIdentity) {
  // X x_n U  <=>  U * X_(n) as unfoldings — the defining identity.
  Rng rng(4);
  Tensor x = Tensor::GaussianRandom({4, 5, 6}, rng);
  for (Index n = 0; n < 3; ++n) {
    Matrix u = Matrix::GaussianRandom(3, x.dim(n), rng);
    Tensor y = ModeProduct(x, u, n);
    std::vector<Index> expect_shape = x.shape();
    expect_shape[static_cast<std::size_t>(n)] = 3;
    ASSERT_EQ(y.shape(), expect_shape);
    EXPECT_TRUE(
        AlmostEqual(Unfold(y, n), Multiply(u, Unfold(x, n)), 1e-10))
        << "mode " << n;
  }
}

TEST(TensorOpsTest, ModeProductTransposeFlag) {
  Rng rng(5);
  Tensor x = Tensor::GaussianRandom({4, 5, 6}, rng);
  for (Index n = 0; n < 3; ++n) {
    Matrix a = Matrix::GaussianRandom(x.dim(n), 2, rng);  // I_n x J.
    Tensor y1 = ModeProduct(x, a, n, Trans::kYes);
    Tensor y2 = ModeProduct(x, a.Transposed(), n, Trans::kNo);
    EXPECT_TRUE(AlmostEqual(y1, y2, 1e-10)) << "mode " << n;
  }
}

TEST(TensorOpsTest, ModeProductsOnDistinctModesCommute) {
  Rng rng(6);
  Tensor x = Tensor::GaussianRandom({4, 5, 6}, rng);
  Matrix u = Matrix::GaussianRandom(2, 4, rng);
  Matrix v = Matrix::GaussianRandom(3, 6, rng);
  Tensor a = ModeProduct(ModeProduct(x, u, 0), v, 2);
  Tensor b = ModeProduct(ModeProduct(x, v, 2), u, 0);
  EXPECT_TRUE(AlmostEqual(a, b, 1e-10));
}

TEST(TensorOpsTest, ModeProductSameModeComposes) {
  // (X x_n U) x_n W = X x_n (W U).
  Rng rng(7);
  Tensor x = Tensor::GaussianRandom({4, 5, 6}, rng);
  Matrix u = Matrix::GaussianRandom(3, 5, rng);
  Matrix w = Matrix::GaussianRandom(2, 3, rng);
  Tensor a = ModeProduct(ModeProduct(x, u, 1), w, 1);
  Tensor b = ModeProduct(x, Multiply(w, u), 1);
  EXPECT_TRUE(AlmostEqual(a, b, 1e-10));
}

TEST(TensorOpsTest, ModeProductChainSkipsRequestedMode) {
  Rng rng(8);
  Tensor x = Tensor::GaussianRandom({4, 5, 6}, rng);
  std::vector<Matrix> mats = {Matrix::GaussianRandom(4, 2, rng),
                              Matrix::GaussianRandom(5, 2, rng),
                              Matrix::GaussianRandom(6, 2, rng)};
  Tensor y = ModeProductChain(x, mats, /*skip_mode=*/1, Trans::kYes);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 5);  // Untouched.
  EXPECT_EQ(y.dim(2), 2);
  Tensor manual =
      ModeProduct(ModeProduct(x, mats[0], 0, Trans::kYes), mats[2], 2,
                  Trans::kYes);
  EXPECT_TRUE(AlmostEqual(y, manual, 1e-10));
}

TEST(TensorOpsTest, UnfoldingKroneckerIdentity) {
  // The identity every Tucker solver relies on:
  //   Y = X x_1 U1 x_2 U2 x_3 U3  =>  Y_(1) = U1 X_(1) (U3 (x) U2)^T.
  Rng rng(9);
  Tensor x = Tensor::GaussianRandom({3, 4, 5}, rng);
  Matrix u1 = Matrix::GaussianRandom(2, 3, rng);
  Matrix u2 = Matrix::GaussianRandom(2, 4, rng);
  Matrix u3 = Matrix::GaussianRandom(2, 5, rng);
  Tensor y = ModeProduct(ModeProduct(ModeProduct(x, u1, 0), u2, 1), u3, 2);
  Matrix rhs = Multiply(Multiply(u1, Unfold(x, 0)),
                        Kronecker(u3, u2).Transposed());
  EXPECT_TRUE(AlmostEqual(Unfold(y, 0), rhs, 1e-9));
}

TEST(TensorOpsTest, KroneckerKnownSmall) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix b({{0, 1}, {1, 0}});
  Matrix k = Kronecker(a, b);
  ASSERT_EQ(k.rows(), 4);
  ASSERT_EQ(k.cols(), 4);
  // Top-left block = 1 * B.
  EXPECT_EQ(k(0, 0), 0);
  EXPECT_EQ(k(0, 1), 1);
  EXPECT_EQ(k(1, 0), 1);
  // Top-right block = 2 * B.
  EXPECT_EQ(k(0, 2), 0);
  EXPECT_EQ(k(0, 3), 2);
  // Bottom-right block = 4 * B.
  EXPECT_EQ(k(3, 2), 4);
}

TEST(TensorOpsTest, KroneckerMixedProductProperty) {
  // (A (x) B)(C (x) D) = AC (x) BD.
  Rng rng(10);
  Matrix a = Matrix::GaussianRandom(3, 4, rng);
  Matrix b = Matrix::GaussianRandom(2, 5, rng);
  Matrix c = Matrix::GaussianRandom(4, 2, rng);
  Matrix d = Matrix::GaussianRandom(5, 3, rng);
  Matrix lhs = Multiply(Kronecker(a, b), Kronecker(c, d));
  Matrix rhs = Kronecker(Multiply(a, c), Multiply(b, d));
  EXPECT_TRUE(AlmostEqual(lhs, rhs, 1e-9));
}

}  // namespace
}  // namespace dtucker
