#include "linalg/eigen_sym.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/metrics.h"
#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/svd.h"

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

TEST(EigenSymTest, DiagonalMatrix) {
  Matrix a = Matrix::Diagonal({1, 5, 3});
  EigenSymResult eig = EigenSym(a);
  EXPECT_NEAR(eig.values[0], 5, 1e-12);
  EXPECT_NEAR(eig.values[1], 3, 1e-12);
  EXPECT_NEAR(eig.values[2], 1, 1e-12);
}

class EigenSymParamTest : public ::testing::TestWithParam<Index> {};

TEST_P(EigenSymParamTest, Reconstructs) {
  const Index n = GetParam();
  Matrix a = RandomSymmetric(n, 31 + static_cast<uint64_t>(n));
  EigenSymResult eig = EigenSym(a);

  // V orthonormal.
  EXPECT_TRUE(AlmostEqual(MultiplyTN(eig.vectors, eig.vectors),
                          Matrix::Identity(n), 1e-9));
  // V diag(w) V^T = A.
  Matrix vd = eig.vectors;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      vd(i, j) *= eig.values[static_cast<std::size_t>(j)];
    }
  }
  EXPECT_TRUE(AlmostEqual(MultiplyNT(vd, eig.vectors), a, 1e-8));
  // Descending order.
  for (Index i = 0; i + 1 < n; ++i) {
    EXPECT_GE(eig.values[static_cast<std::size_t>(i)],
              eig.values[static_cast<std::size_t>(i + 1)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymParamTest,
                         ::testing::Values(1, 2, 3, 8, 16, 40));

TEST(EigenSymTest, GramEigenvaluesAreSquaredSingularValues) {
  Rng rng(32);
  Matrix a = Matrix::GaussianRandom(25, 6, rng);
  SvdResult svd = ThinSvd(a);
  EigenSymResult eig = EigenSym(Gram(a));
  for (Index i = 0; i < 6; ++i) {
    EXPECT_NEAR(eig.values[static_cast<std::size_t>(i)],
                svd.s[static_cast<std::size_t>(i)] *
                    svd.s[static_cast<std::size_t>(i)],
                1e-7 * eig.values[0]);
  }
}

TEST(EigenSymTest, NegativeEigenvaluesHandled) {
  Matrix a({{0, 2}, {2, 0}});  // Eigenvalues +2, -2.
  EigenSymResult eig = EigenSym(a);
  EXPECT_NEAR(eig.values[0], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[1], -2.0, 1e-12);
}

// n = 128 > 64 and 2k < n, so TopEigenvectorsSym takes the randomized
// subspace-iteration branch; the dense Jacobi solve is the reference.
TEST(EigenSymTest, SubspaceIterationMatchesDenseProjector) {
  const Index n = 128;
  const Index k = 10;
  // PSD with a spread spectrum 2^-i on a random orthonormal basis.
  Matrix basis = EigenSym(RandomSymmetric(n, 77)).vectors;
  Matrix scaled = basis;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      scaled(i, j) *= std::ldexp(1.0, -static_cast<int>(j));
    }
  }
  const Matrix a = MultiplyNT(scaled, basis);
  const Matrix ref = EigenSym(a).vectors.LeftCols(k);
  const Matrix ref_projector = MultiplyNT(ref, ref);

  Counter& sweeps = MetricCounter("eig.subspace_sweeps");
  Matrix subspace;
  const std::uint64_t before_cold = sweeps.Value();
  const Matrix cold = TopEigenvectorsSym(a, k, &subspace);
  const std::uint64_t cold_sweeps = sweeps.Value() - before_cold;
  ASSERT_GT(cold_sweeps, 0u) << "dense branch taken";
  ASSERT_EQ(subspace.rows(), n);
  EXPECT_TRUE(AlmostEqual(MultiplyTN(cold, cold), Matrix::Identity(k), 1e-10));
  EXPECT_LT((MultiplyNT(cold, cold) - ref_projector).MaxAbs(), 1e-8);

  // Warm start from the returned basis: same subspace, no more sweeps.
  const std::uint64_t before_warm = sweeps.Value();
  const Matrix warm = TopEigenvectorsSym(a, k, &subspace);
  EXPECT_LE(sweeps.Value() - before_warm, cold_sweeps);
  EXPECT_LT((MultiplyNT(warm, warm) - ref_projector).MaxAbs(), 1e-8);
}

// The subspace iteration's A Q runs in row tiles on the BLAS pool (one
// GemmRaw call on a single thread): every thread count gives the same bits,
// capped (max_sweeps = 2) and converged solves alike.
TEST(EigenSymTest, SubspaceIterationBitwiseIdenticalAcrossThreads) {
  const Index n = 300;
  Rng rng(79);
  const Matrix g = Matrix::GaussianRandom(n, 400, rng);
  const Matrix a = MultiplyNT(g, g);
  for (const SubspaceIterationOptions& options :
       {SubspaceIterationOptions{}, SubspaceIterationOptions{2, 1e-9}}) {
    Matrix serial;
    for (int threads : {1, 2, 3, 4, 8}) {
      SetBlasThreads(threads);
      const Matrix v = TopEigenvectorsSym(a, 20, nullptr, options);
      if (threads == 1) {
        serial = v;
        EXPECT_TRUE(
            AlmostEqual(MultiplyTN(v, v), Matrix::Identity(20), 1e-10));
      } else {
        EXPECT_TRUE(AlmostEqual(v, serial, 0.0)) << "threads=" << threads;
      }
    }
    SetBlasThreads(1);
  }
}

}  // namespace
}  // namespace dtucker
