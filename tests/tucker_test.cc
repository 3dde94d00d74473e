#include "tucker/tucker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "tensor/tensor_ops.h"
#include "tucker/hosvd.h"
#include "tucker/tucker_als.h"

namespace dtucker {
namespace {

TEST(TuckerDecompositionTest, ReconstructExactForFullRank) {
  Rng rng(1);
  Tensor x = Tensor::GaussianRandom({4, 5, 6}, rng);
  // Full-rank HOSVD reproduces the tensor exactly.
  TuckerDecomposition dec = Hosvd(x, {4, 5, 6}).ValueOrDie();
  EXPECT_LT(dec.RelativeErrorAgainst(x), 1e-18);
}

TEST(TuckerDecompositionTest, RanksAndByteSize) {
  Tensor x = MakeLowRankTensor({10, 12, 14}, {3, 4, 5}, 0.0, 2);
  TuckerDecomposition dec = Hosvd(x, {3, 4, 5}).ValueOrDie();
  EXPECT_EQ(dec.Ranks(), (std::vector<Index>{3, 4, 5}));
  const std::size_t expected =
      (3 * 4 * 5 + 10 * 3 + 12 * 4 + 14 * 5) * sizeof(double);
  EXPECT_EQ(dec.ByteSize(), expected);
}

TEST(OrthogonalErrorTest, MatchesDirectComputation) {
  Tensor x = MakeLowRankTensor({8, 9, 10}, {2, 3, 4}, 0.1, 3);
  TuckerDecomposition dec = StHosvd(x, {2, 3, 4}).ValueOrDie();
  const double direct = dec.RelativeErrorAgainst(x);
  const double fast = OrthogonalTuckerRelativeError(x.SquaredNorm(),
                                                    dec.core.SquaredNorm());
  EXPECT_NEAR(direct, fast, 1e-8);
}

TEST(HosvdTest, ExactOnExactlyLowRankTensor) {
  Tensor x = MakeLowRankTensor({12, 10, 8}, {3, 3, 3}, 0.0, 4);
  TuckerDecomposition dec = Hosvd(x, {3, 3, 3}).ValueOrDie();
  EXPECT_LT(dec.RelativeErrorAgainst(x), 1e-16);
}

TEST(StHosvdTest, ExactOnExactlyLowRankTensor) {
  Tensor x = MakeLowRankTensor({12, 10, 8}, {3, 3, 3}, 0.0, 5);
  TuckerDecomposition dec = StHosvd(x, {3, 3, 3}).ValueOrDie();
  EXPECT_LT(dec.RelativeErrorAgainst(x), 1e-16);
}

TEST(HosvdTest, FactorsAreOrthonormal) {
  Tensor x = MakeLowRankTensor({9, 9, 9}, {4, 4, 4}, 0.2, 6);
  for (const auto& dec : {Hosvd(x, {2, 3, 4}).ValueOrDie(),
                          StHosvd(x, {2, 3, 4}).ValueOrDie()}) {
    for (const auto& f : dec.factors) {
      EXPECT_TRUE(AlmostEqual(MultiplyTN(f, f), Matrix::Identity(f.cols()),
                              1e-9));
    }
  }
}

// max |Q Q^T - R R^T| over the entries: zero when Q and R span the same
// subspace, whatever basis each picks.
double ProjectorDistance(const Matrix& q, const Matrix& r) {
  const Matrix pq = MultiplyNT(q, q);
  const Matrix pr = MultiplyNT(r, r);
  double d = 0.0;
  for (Index j = 0; j < pq.cols(); ++j) {
    for (Index i = 0; i < pq.rows(); ++i) {
      d = std::max(d, std::fabs(pq(i, j) - pr(i, j)));
    }
  }
  return d;
}

TEST(LeadingModeVectorsTest, LastModeSmallSideMatchesModeGram) {
  // prod(other dims) = 12 < I_last: the last mode takes the small-side
  // Gram X_(n)^T X_(n). Its subspace must be the one the I_last x I_last
  // mode Gram gives, for order 3 and order 4.
  struct Case {
    std::vector<Index> shape;
    std::vector<Index> ranks;
  };
  const Case cases[] = {{{3, 4, 40}, {3, 4, 5}}, {{3, 2, 2, 30}, {2, 2, 2, 4}}};
  for (const Case& c : cases) {
    Tensor x = MakeLowRankTensor(c.shape, c.ranks, 0.05, 31);
    const Index last = x.order() - 1;
    const Index k = c.ranks.back();
    const Matrix q = LeadingModeVectorsViaGram(x, last, k);
    const Matrix ref = EigenSymFast(ModeGram(x, last)).vectors.LeftCols(k);
    ASSERT_EQ(q.rows(), x.dim(last));
    ASSERT_EQ(q.cols(), k);
    EXPECT_TRUE(AlmostEqual(MultiplyTN(q, q), Matrix::Identity(k), 1e-12))
        << x.ShapeString();
    EXPECT_LE(ProjectorDistance(q, ref), 1e-10) << x.ShapeString();
  }
}

TEST(LeadingModeVectorsTest, LastModeWithoutSmallSideTakesModeGram) {
  // k > prod(other dims) = 4, and prod(other dims) = 25 >= I_last: both
  // leave the small side and give the mode-Gram path's bits.
  struct Case {
    std::vector<Index> shape;
    Index k;
  };
  const Case cases[] = {{{2, 2, 30}, 6}, {{5, 5, 10}, 3}};
  for (const Case& c : cases) {
    Tensor x = MakeLowRankTensor(c.shape, {2, 2, 2}, 0.1, 32);
    const Matrix q = LeadingModeVectorsViaGram(x, 2, c.k);
    const Matrix ref = TopEigenvectorsSym(ModeGram(x, 2), c.k);
    EXPECT_TRUE(AlmostEqual(q, ref, 0.0)) << x.ShapeString();
  }
}

TEST(TuckerAlsTest, RejectsBadRanks) {
  Tensor x({4, 4, 4});
  TuckerAlsOptions opt;
  opt.ranks = {2, 2};  // Wrong count.
  EXPECT_FALSE(TuckerAls(x, opt).ok());
  opt.ranks = {2, 2, 9};  // Exceeds dimension.
  EXPECT_FALSE(TuckerAls(x, opt).ok());
  opt.ranks = {0, 2, 2};  // Non-positive.
  EXPECT_FALSE(TuckerAls(x, opt).ok());
}

TEST(TuckerAlsTest, ExactRecovery) {
  Tensor x = MakeLowRankTensor({15, 12, 10}, {3, 3, 3}, 0.0, 7);
  TuckerAlsOptions opt;
  opt.ranks = {3, 3, 3};
  opt.max_iterations = 10;
  TuckerStats stats;
  Result<TuckerDecomposition> dec = TuckerAls(x, opt, &stats);
  ASSERT_TRUE(dec.ok());
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-14);
  EXPECT_GE(stats.iterations, 1);
}

TEST(TuckerAlsTest, ErrorDecreasesMonotonically) {
  Tensor x = MakeLowRankTensor({14, 13, 12}, {5, 5, 5}, 0.3, 8);
  TuckerAlsOptions opt;
  opt.ranks = {3, 3, 3};
  opt.max_iterations = 8;
  opt.tolerance = 0.0;  // Force all sweeps.
  TuckerStats stats;
  ASSERT_TRUE(TuckerAls(x, opt, &stats).ok());
  ASSERT_GE(stats.error_history.size(), 2u);
  for (std::size_t i = 1; i < stats.error_history.size(); ++i) {
    EXPECT_LE(stats.error_history[i], stats.error_history[i - 1] + 1e-12)
        << "sweep " << i;
  }
}

TEST(TuckerAlsTest, BeatsOrMatchesHosvdInError) {
  Tensor x = MakeLowRankTensor({16, 14, 12}, {6, 6, 6}, 0.4, 9);
  std::vector<Index> ranks = {3, 3, 3};
  TuckerAlsOptions opt;
  opt.ranks = ranks;
  opt.max_iterations = 15;
  Result<TuckerDecomposition> als = TuckerAls(x, opt);
  ASSERT_TRUE(als.ok());
  TuckerDecomposition hosvd = Hosvd(x, ranks).ValueOrDie();
  EXPECT_LE(als.value().RelativeErrorAgainst(x),
            hosvd.RelativeErrorAgainst(x) + 1e-12);
}

TEST(TuckerAlsTest, RandomInitConvergesToo) {
  Tensor x = MakeLowRankTensor({12, 12, 12}, {3, 3, 3}, 0.0, 10);
  TuckerAlsOptions opt;
  opt.ranks = {3, 3, 3};
  opt.init = TuckerInit::kRandom;
  opt.max_iterations = 30;
  Result<TuckerDecomposition> dec = TuckerAls(x, opt);
  ASSERT_TRUE(dec.ok());
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-10);
}

TEST(TuckerAlsTest, FourOrderTensor) {
  Tensor x = MakeLowRankTensor({8, 7, 6, 5}, {2, 2, 2, 2}, 0.0, 11);
  TuckerAlsOptions opt;
  opt.ranks = {2, 2, 2, 2};
  Result<TuckerDecomposition> dec = TuckerAls(x, opt);
  ASSERT_TRUE(dec.ok());
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-14);
}

TEST(TuckerAlsTest, ExactSvdUpdateMatchesGramUpdate) {
  Tensor x = MakeLowRankTensor({14, 12, 10}, {6, 6, 6}, 0.3, 14);
  TuckerAlsOptions gram_opt;
  gram_opt.ranks = {3, 3, 3};
  gram_opt.max_iterations = 8;
  TuckerAlsOptions svd_opt = gram_opt;
  svd_opt.factor_update = FactorUpdate::kExactSvd;
  Result<TuckerDecomposition> g = TuckerAls(x, gram_opt);
  Result<TuckerDecomposition> s = TuckerAls(x, svd_opt);
  ASSERT_TRUE(g.ok() && s.ok());
  // Both converge to (essentially) the same objective value.
  EXPECT_NEAR(g.value().RelativeErrorAgainst(x),
              s.value().RelativeErrorAgainst(x), 1e-6);
}

TEST(TuckerAlsTest, RandomizedUpdateCloseToGramUpdate) {
  Tensor x = MakeLowRankTensor({20, 18, 16}, {4, 4, 4}, 0.2, 15);
  TuckerAlsOptions gram_opt;
  gram_opt.ranks = {4, 4, 4};
  gram_opt.max_iterations = 10;
  TuckerAlsOptions rnd_opt = gram_opt;
  rnd_opt.factor_update = FactorUpdate::kRandomized;
  Result<TuckerDecomposition> g = TuckerAls(x, gram_opt);
  Result<TuckerDecomposition> r = TuckerAls(x, rnd_opt);
  ASSERT_TRUE(g.ok() && r.ok());
  EXPECT_LT(r.value().RelativeErrorAgainst(x),
            g.value().RelativeErrorAgainst(x) * 1.1 + 1e-6);
}

TEST(TuckerAlsTest, ScaleInvariance) {
  // Scaling the input scales the core, leaves factors invariant (up to
  // sign), and keeps the relative error identical.
  Tensor x = MakeLowRankTensor({12, 11, 10}, {3, 3, 3}, 0.2, 16);
  Tensor x_scaled = x;
  x_scaled *= 1e6;
  TuckerAlsOptions opt;
  opt.ranks = {3, 3, 3};
  opt.max_iterations = 8;
  Result<TuckerDecomposition> a = TuckerAls(x, opt);
  Result<TuckerDecomposition> b = TuckerAls(x_scaled, opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a.value().RelativeErrorAgainst(x),
              b.value().RelativeErrorAgainst(x_scaled), 1e-10);
  Tensor scaled_core = a.value().core;
  scaled_core *= 1e6;
  // Factor sign ambiguity can flip core entries; compare norms.
  EXPECT_NEAR(scaled_core.FrobeniusNorm(), b.value().core.FrobeniusNorm(),
              1e-6 * scaled_core.FrobeniusNorm());
}

TEST(TuckerAlsTest, ToleranceStopsEarly) {
  Tensor x = MakeLowRankTensor({10, 10, 10}, {2, 2, 2}, 0.0, 12);
  TuckerAlsOptions opt;
  opt.ranks = {2, 2, 2};
  opt.max_iterations = 100;
  opt.tolerance = 1e-6;
  TuckerStats stats;
  ASSERT_TRUE(TuckerAls(x, opt, &stats).ok());
  EXPECT_LT(stats.iterations, 100);
}

// Rank sweep: error decreases as rank increases (property of nested
// approximation spaces; ALS is near-optimal here).
class TuckerRankSweepTest : public ::testing::TestWithParam<Index> {};

TEST_P(TuckerRankSweepTest, ErrorShrinksWithRank) {
  static Tensor* x = new Tensor(
      MakeLowRankTensor({14, 14, 14}, {8, 8, 8}, 0.2, 13));
  const Index r = GetParam();
  TuckerAlsOptions opt;
  opt.ranks = {r, r, r};
  opt.max_iterations = 10;
  Result<TuckerDecomposition> dec = TuckerAls(*x, opt);
  ASSERT_TRUE(dec.ok());
  const double err = dec.value().RelativeErrorAgainst(*x);

  TuckerAlsOptions opt_next = opt;
  opt_next.ranks = {r + 2, r + 2, r + 2};
  Result<TuckerDecomposition> dec_next = TuckerAls(*x, opt_next);
  ASSERT_TRUE(dec_next.ok());
  EXPECT_LE(dec_next.value().RelativeErrorAgainst(*x), err + 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Ranks, TuckerRankSweepTest,
                         ::testing::Values(2, 4, 6));

}  // namespace
}  // namespace dtucker
