#include "rsvd/rsvd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/qr.h"

namespace dtucker {
namespace {

// A matrix with exact rank r plus optional noise.
Matrix LowRankMatrix(Index m, Index n, Index r, double noise, uint64_t seed) {
  Rng rng(seed);
  Matrix b = Matrix::GaussianRandom(m, r, rng);
  Matrix c = Matrix::GaussianRandom(r, n, rng);
  Matrix a = Multiply(b, c);
  if (noise > 0) {
    Matrix e = Matrix::GaussianRandom(m, n, rng);
    a += e * (noise * a.FrobeniusNorm() / e.FrobeniusNorm());
  }
  return a;
}

TEST(RsvdTest, ExactRecoveryOfLowRankMatrix) {
  Matrix a = LowRankMatrix(80, 60, 5, 0.0, 1);
  RsvdOptions opt;
  opt.rank = 5;
  SvdResult svd = RandomizedSvd(a, opt);
  ASSERT_EQ(svd.u.cols(), 5);
  Matrix rec = svd.Reconstruct();
  EXPECT_LT((a - rec).FrobeniusNorm() / a.FrobeniusNorm(), 1e-9);
}

TEST(RsvdTest, RangeFinderCapturesRange) {
  Matrix a = LowRankMatrix(100, 40, 6, 0.0, 2);
  RsvdOptions opt;
  opt.rank = 6;
  Matrix q = RandomizedSvd(a, opt).u;
  // ||A - U U^T A|| should vanish for exact rank 6 with oversampling.
  Matrix proj = Multiply(q, MultiplyTN(q, a));
  EXPECT_LT((a - proj).FrobeniusNorm() / a.FrobeniusNorm(), 1e-9);
  // Q orthonormal.
  EXPECT_TRUE(AlmostEqual(MultiplyTN(q, q), Matrix::Identity(q.cols()),
                          1e-10));
}

TEST(RsvdTest, NoisyMatrixErrorNearOptimal) {
  Matrix a = LowRankMatrix(120, 90, 8, 0.1, 3);
  RsvdOptions opt;
  opt.rank = 8;
  opt.power_iterations = 2;
  SvdResult rsvd = RandomizedSvd(a, opt);
  SvdResult exact = ThinSvd(a);
  exact.Truncate(8);
  const double err_r = (a - rsvd.Reconstruct()).SquaredNorm();
  const double err_e = (a - exact.Reconstruct()).SquaredNorm();
  // Within 5% of the optimal rank-8 error.
  EXPECT_LT(err_r, err_e * 1.05);
}

TEST(RsvdTest, DeterministicInSeed) {
  Matrix a = LowRankMatrix(50, 50, 4, 0.05, 4);
  RsvdOptions opt;
  opt.rank = 4;
  opt.seed = 99;
  SvdResult s1 = RandomizedSvd(a, opt);
  SvdResult s2 = RandomizedSvd(a, opt);
  EXPECT_TRUE(AlmostEqual(s1.u, s2.u, 0.0));
  opt.seed = 100;
  SvdResult s3 = RandomizedSvd(a, opt);
  EXPECT_FALSE(AlmostEqual(s1.u, s3.u, 1e-12));
}

TEST(RsvdTest, RankClampedToMinDimension) {
  Rng rng(5);
  Matrix a = Matrix::GaussianRandom(20, 3, rng);
  RsvdOptions opt;
  opt.rank = 10;  // More than min(m, n) = 3.
  SvdResult svd = RandomizedSvd(a, opt);
  EXPECT_EQ(svd.u.cols(), 3);
  EXPECT_TRUE(AlmostEqual(svd.Reconstruct(), a, 1e-8));
}

TEST(RsvdTest, SingularValuesDescending) {
  Matrix a = LowRankMatrix(60, 60, 10, 0.2, 6);
  RsvdOptions opt;
  opt.rank = 10;
  SvdResult svd = RandomizedSvd(a, opt);
  for (std::size_t i = 0; i + 1 < svd.s.size(); ++i) {
    EXPECT_GE(svd.s[i], svd.s[i + 1]);
  }
}

TEST(RsvdTest, SketchSamplerIsStandardNormal) {
  const std::size_t n = 400000;
  std::vector<double> v(n);
  Rng rng(17);
  FillSketchGaussian(rng, v.data(), n);
  double m1 = 0.0, m2 = 0.0, m4 = 0.0;
  std::size_t beyond2 = 0, tail = 0;
  for (double x : v) {
    m1 += x;
    m2 += x * x;
    m4 += x * x * x * x;
    beyond2 += std::fabs(x) > 2.0;
    tail += std::fabs(x) > 3.6541528853610088;  // The ziggurat's tail.
  }
  const double dn = static_cast<double>(n);
  EXPECT_NEAR(m1 / dn, 0.0, 0.01);
  EXPECT_NEAR(m2 / dn, 1.0, 0.01);
  EXPECT_NEAR(m4 / dn, 3.0, 0.06);
  EXPECT_NEAR(static_cast<double>(beyond2) / dn,
              std::erfc(2.0 / std::sqrt(2.0)), 0.002);
  EXPECT_NEAR(static_cast<double>(tail) / dn,
              std::erfc(3.6541528853610088 / std::sqrt(2.0)), 1e-4);
  // Deterministic in the seed.
  std::vector<double> again(n);
  Rng rng2(17);
  FillSketchGaussian(rng2, again.data(), n);
  EXPECT_EQ(v, again);
}

TEST(RsvdTest, GroupLanesMatchRandomizedSvdBitwise) {
  const Index m = 37, n = 29;
  for (int q : {0, 1, 2}) {
    RsvdOptions opt;
    opt.rank = 6;
    opt.power_iterations = q;
    std::vector<Matrix> inputs;
    for (int l = 0; l < 5; ++l) {
      inputs.push_back(LowRankMatrix(m, n, 3 + l, 0.05, 30 + l));
    }
    RsvdGroup group(m, n, opt);
    for (int l = 0; l < 5; ++l) {
      group.Sketch(l, inputs[static_cast<std::size_t>(l)].data(), 500 + l);
    }
    group.Solve(5);
    for (int l = 0; l < 5; ++l) {
      RsvdOptions single = opt;
      single.seed = 500 + l;
      const SvdResult want =
          RandomizedSvd(inputs[static_cast<std::size_t>(l)], single);
      const SvdResult got = group.Extract(l, group.target());
      EXPECT_EQ(got.s, want.s) << "q=" << q << " lane " << l;
      EXPECT_TRUE(AlmostEqual(got.u, want.u, 0.0)) << "q=" << q;
      EXPECT_TRUE(AlmostEqual(got.v, want.v, 0.0)) << "q=" << q;
    }
  }
}

TEST(RsvdTest, ZeroMatrixGivesZeroSingularValues) {
  Matrix a(30, 20);
  RsvdOptions opt;
  opt.rank = 4;
  SvdResult svd = RandomizedSvd(a, opt);
  for (double s : svd.s) EXPECT_EQ(s, 0.0);
  EXPECT_TRUE(AlmostEqual(svd.Reconstruct(), a, 0.0));
}

// Power-iteration sweep: more iterations should not make the subspace
// worse on a matrix with slowly decaying spectrum.
class RsvdPowerParamTest : public ::testing::TestWithParam<int> {};

TEST_P(RsvdPowerParamTest, ErrorBoundedByOptimalPlusSlack) {
  Matrix a = LowRankMatrix(100, 80, 12, 0.3, 7);
  RsvdOptions opt;
  opt.rank = 6;
  opt.power_iterations = GetParam();
  SvdResult rsvd = RandomizedSvd(a, opt);
  SvdResult exact = ThinSvd(a);
  exact.Truncate(6);
  const double err_r = (a - rsvd.Reconstruct()).SquaredNorm();
  const double err_e = (a - exact.Reconstruct()).SquaredNorm();
  EXPECT_LT(err_r, err_e * 1.5) << "q = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PowerIterations, RsvdPowerParamTest,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace dtucker
