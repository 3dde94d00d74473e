// Tests for tucker/metrics, tucker/naive_tucker, and tensor/tensor_utils.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "data/generators.h"
#include "dtucker/dtucker.h"
#include "linalg/blas.h"
#include "linalg/qr.h"
#include "tensor/tensor_utils.h"
#include "tucker/metrics.h"
#include "tucker/naive_tucker.h"
#include "tucker/tucker_als.h"

namespace dtucker {
namespace {

// --- metrics ---

TEST(MetricsTest, IdenticalSubspaces) {
  Rng rng(1);
  Matrix q = QrOrthonormalize(Matrix::GaussianRandom(20, 4, rng));
  EXPECT_NEAR(SubspaceDistance(q, q).value(), 0.0, 1e-6);
  EXPECT_NEAR(SubspaceSimilarity(q, q).value(), 1.0, 1e-9);
}

TEST(MetricsTest, RotatedBasisSameSubspace) {
  // Q and Q*R for orthogonal R span the same space.
  Rng rng(2);
  Matrix q = QrOrthonormalize(Matrix::GaussianRandom(20, 4, rng));
  Matrix rot = QrOrthonormalize(Matrix::GaussianRandom(4, 4, rng));
  Matrix q2 = Multiply(q, rot);
  EXPECT_NEAR(SubspaceDistance(q, q2).value(), 0.0, 1e-6);
}

TEST(MetricsTest, OrthogonalSubspacesMaxDistance) {
  Matrix u = Matrix::Zero(6, 2);
  u(0, 0) = 1;
  u(1, 1) = 1;
  Matrix v = Matrix::Zero(6, 2);
  v(2, 0) = 1;
  v(3, 1) = 1;
  EXPECT_NEAR(SubspaceDistance(u, v).value(), 1.0, 1e-12);
  EXPECT_NEAR(SubspaceSimilarity(u, v).value(), 0.0, 1e-12);
}

TEST(MetricsTest, KnownAngle) {
  // Plane rotated by 30 degrees in one direction.
  const double theta = M_PI / 6;
  Matrix u = Matrix::Zero(3, 1);
  u(0, 0) = 1;
  Matrix v = Matrix::Zero(3, 1);
  v(0, 0) = std::cos(theta);
  v(1, 0) = std::sin(theta);
  EXPECT_NEAR(SubspaceDistance(u, v).value(), std::sin(theta), 1e-12);
  EXPECT_NEAR(SubspaceSimilarity(u, v).value(), std::cos(theta), 1e-12);
}

TEST(MetricsTest, ValidatesShapes) {
  Matrix u(5, 2), v(6, 2);
  EXPECT_FALSE(SubspaceDistance(u, v).ok());
  EXPECT_FALSE(SubspaceSimilarity(Matrix(5, 0), Matrix(5, 0)).ok());
}

TEST(MetricsTest, FactorMatchScoreAcrossMethods) {
  // D-Tucker and Tucker-ALS should land in (nearly) the same factor
  // subspaces on well-conditioned data — the subspace-level version of
  // "comparable accuracy".
  Tensor x = MakeLowRankTensor({18, 16, 14}, {3, 3, 3}, 0.05, 3);
  TuckerAlsOptions aopt;
  aopt.ranks = {3, 3, 3};
  aopt.max_iterations = 15;
  Result<TuckerDecomposition> als = TuckerAls(x, aopt);
  ASSERT_TRUE(als.ok());

  DTuckerOptions dopt;
  dopt.tucker.ranks = {3, 3, 3};
  dopt.tucker.max_iterations = 15;
  Result<TuckerDecomposition> dt = DTucker(x, dopt);
  ASSERT_TRUE(dt.ok());

  Result<double> fms = FactorMatchScore(als.value(), dt.value());
  ASSERT_TRUE(fms.ok());
  EXPECT_GT(fms.value(), 0.99);
}

TEST(MetricsTest, CoreEnergyRatio) {
  Tensor x = MakeLowRankTensor({12, 10, 8}, {2, 2, 2}, 0.0, 4);
  TuckerAlsOptions opt;
  opt.ranks = {2, 2, 2};
  Result<TuckerDecomposition> dec = TuckerAls(x, opt);
  ASSERT_TRUE(dec.ok());
  EXPECT_NEAR(CoreEnergyRatio(dec.value(), x.SquaredNorm()), 1.0, 1e-10);
  EXPECT_EQ(CoreEnergyRatio(dec.value(), 0.0), 1.0);
}

// --- naive Kronecker ALS ---

TEST(NaiveTuckerTest, MatchesOptimizedAlsFixedPoint) {
  Tensor x = MakeLowRankTensor({10, 9, 8}, {3, 3, 3}, 0.2, 5);
  TuckerAlsOptions opt;
  opt.ranks = {3, 3, 3};
  opt.max_iterations = 10;
  Result<TuckerDecomposition> fast = TuckerAls(x, opt);
  std::size_t peak = 0;
  Result<TuckerDecomposition> naive =
      TuckerAlsNaiveKronecker(x, opt, nullptr, &peak);
  ASSERT_TRUE(fast.ok() && naive.ok());
  EXPECT_NEAR(fast.value().RelativeErrorAgainst(x),
              naive.value().RelativeErrorAgainst(x), 1e-8);
  // The naive route materialized a Kronecker operand larger than any
  // single intermediate of the TTM chain.
  EXPECT_GT(peak, x.ByteSize());
}

TEST(NaiveTuckerTest, IntermediateGrowsWithOtherModes) {
  TuckerAlsOptions opt;
  opt.ranks = {2, 2, 2};
  opt.max_iterations = 1;
  std::size_t peak_small = 0, peak_large = 0;
  Tensor small = MakeLowRankTensor({6, 6, 6}, {2, 2, 2}, 0.1, 6);
  Tensor large = MakeLowRankTensor({6, 12, 12}, {2, 2, 2}, 0.1, 6);
  ASSERT_TRUE(
      TuckerAlsNaiveKronecker(small, opt, nullptr, &peak_small).ok());
  ASSERT_TRUE(
      TuckerAlsNaiveKronecker(large, opt, nullptr, &peak_large).ok());
  EXPECT_GT(peak_large, peak_small);
}

// --- tensor utils ---

TEST(TensorUtilsTest, SubTensorMatchesManual) {
  Rng rng(7);
  Tensor x = Tensor::GaussianRandom({4, 6, 5}, rng);
  Result<Tensor> sub = SubTensor(x, 1, 2, 3);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().shape(), (std::vector<Index>{4, 3, 5}));
  for (Index k = 0; k < 5; ++k) {
    for (Index j = 0; j < 3; ++j) {
      for (Index i = 0; i < 4; ++i) {
        EXPECT_EQ(sub.value()(i, j, k), x(i, j + 2, k));
      }
    }
  }
}

TEST(TensorUtilsTest, SubTensorAgreesWithLastModeSlice) {
  Rng rng(8);
  Tensor x = Tensor::GaussianRandom({4, 5, 9}, rng);
  Result<Tensor> sub = SubTensor(x, 2, 3, 4);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(AlmostEqual(sub.value(), x.LastModeSlice(3, 4), 0.0));
}

TEST(TensorUtilsTest, SubTensorValidates) {
  Tensor x({4, 4, 4});
  EXPECT_FALSE(SubTensor(x, 3, 0, 1).ok());
  EXPECT_FALSE(SubTensor(x, 0, 3, 2).ok());
  EXPECT_FALSE(SubTensor(x, 0, -1, 1).ok());
}

TEST(TensorUtilsTest, ConcatenateInvertsSubTensor) {
  Rng rng(9);
  Tensor x = Tensor::GaussianRandom({3, 7, 4}, rng);
  for (Index mode = 0; mode < 3; ++mode) {
    const Index split = x.dim(mode) / 2;
    Tensor a = SubTensor(x, mode, 0, split).value();
    Tensor b = SubTensor(x, mode, split, x.dim(mode) - split).value();
    Result<Tensor> joined = Concatenate(a, b, mode);
    ASSERT_TRUE(joined.ok());
    EXPECT_TRUE(AlmostEqual(joined.value(), x, 0.0)) << "mode " << mode;
  }
}

TEST(TensorUtilsTest, ConcatenateValidates) {
  Tensor a({3, 4, 5});
  Tensor b({3, 5, 5});
  EXPECT_FALSE(Concatenate(a, b, 2).ok());  // Mode-1 dims differ.
  EXPECT_TRUE(Concatenate(a, b, 1).ok());
  Tensor c({3, 4});
  EXPECT_FALSE(Concatenate(a, c, 0).ok());  // Order mismatch.
}

TEST(TensorUtilsTest, HadamardAndMaxAbs) {
  Tensor a({2, 2, 1});
  a(0, 0, 0) = 2;
  a(1, 1, 0) = -3;
  Tensor b = a;
  Result<Tensor> h = HadamardProduct(a, b);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value()(0, 0, 0), 4);
  EXPECT_EQ(h.value()(1, 1, 0), 9);
  EXPECT_EQ(MaxAbs(a), 3);
  EXPECT_FALSE(HadamardProduct(a, Tensor({2, 2, 2})).ok());
}

TEST(TensorUtilsTest, FiniteValidation) {
  Tensor x({2, 2, 2});
  EXPECT_FALSE(ContainsNonFinite(x));
  EXPECT_TRUE(ValidateFinite(x).ok());
  x(1, 1, 1) = std::nan("");
  EXPECT_TRUE(ContainsNonFinite(x));
  EXPECT_FALSE(ValidateFinite(x).ok());
  x(1, 1, 1) = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ContainsNonFinite(x));
}

TEST(TensorUtilsTest, SolversRejectNonFiniteWhenValidating) {
  Tensor x = MakeLowRankTensor({8, 8, 8}, {2, 2, 2}, 0.0, 10);
  x(0, 0, 0) = std::nan("");
  TuckerAlsOptions aopt;
  aopt.ranks = {2, 2, 2};
  aopt.validate_input = true;
  EXPECT_FALSE(TuckerAls(x, aopt).ok());

  DTuckerOptions dopt;
  dopt.tucker.ranks = {2, 2, 2};
  dopt.tucker.validate_input = true;
  EXPECT_FALSE(DTucker(x, dopt).ok());
  // D-Tucker's slice compressor checks every slice whatever the option says.
  dopt.tucker.validate_input = false;
  EXPECT_EQ(DTucker(x, dopt).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dtucker
