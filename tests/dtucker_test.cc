#include "dtucker/dtucker.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "linalg/blas.h"
#include "tucker/tucker_als.h"

namespace dtucker {
namespace {

DTuckerOptions MakeOptions(std::vector<Index> ranks, int iters = 10) {
  DTuckerOptions opt;
  opt.tucker.ranks = std::move(ranks);
  opt.tucker.max_iterations = iters;
  return opt;
}

TEST(DTuckerTest, RejectsLowOrder) {
  Tensor x({5, 5});
  EXPECT_FALSE(DTucker(x, MakeOptions({2, 2})).ok());
}

TEST(DTuckerTest, RejectsBadRanks) {
  Rng rng(1);
  Tensor x = Tensor::GaussianRandom({6, 6, 6}, rng);
  EXPECT_FALSE(DTucker(x, MakeOptions({2, 2})).ok());
  EXPECT_FALSE(DTucker(x, MakeOptions({7, 2, 2})).ok());
}

TEST(DTuckerTest, ExactRecoveryOfLowRankTensor) {
  Tensor x = MakeLowRankTensor({20, 18, 12}, {3, 3, 3}, 0.0, 2);
  Result<TuckerDecomposition> dec = DTucker(x, MakeOptions({3, 3, 3}));
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-12);
}

TEST(DTuckerTest, FactorsOrthonormalCorrectShapes) {
  Tensor x = MakeLowRankTensor({16, 14, 10}, {5, 5, 5}, 0.1, 3);
  Result<TuckerDecomposition> dec = DTucker(x, MakeOptions({4, 3, 2}));
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec.value().factors.size(), 3u);
  EXPECT_EQ(dec.value().factors[0].rows(), 16);
  EXPECT_EQ(dec.value().factors[0].cols(), 4);
  EXPECT_EQ(dec.value().factors[1].cols(), 3);
  EXPECT_EQ(dec.value().factors[2].cols(), 2);
  EXPECT_EQ(dec.value().core.shape(), (std::vector<Index>{4, 3, 2}));
  for (const auto& f : dec.value().factors) {
    EXPECT_TRUE(AlmostEqual(MultiplyTN(f, f), Matrix::Identity(f.cols()),
                            1e-8));
  }
}

TEST(DTuckerTest, MatchesTuckerAlsAccuracyOnNoisyData) {
  // The headline accuracy claim: D-Tucker's error is comparable to HOOI's.
  Tensor x = MakeLowRankTensor({24, 20, 16}, {4, 4, 4}, 0.3, 4);
  std::vector<Index> ranks = {4, 4, 4};

  Result<TuckerDecomposition> dt = DTucker(x, MakeOptions(ranks, 20));
  ASSERT_TRUE(dt.ok());
  TuckerAlsOptions als_opt;
  als_opt.ranks = ranks;
  als_opt.max_iterations = 20;
  Result<TuckerDecomposition> als = TuckerAls(x, als_opt);
  ASSERT_TRUE(als.ok());

  const double err_dt = dt.value().RelativeErrorAgainst(x);
  const double err_als = als.value().RelativeErrorAgainst(x);
  EXPECT_LT(err_dt, err_als * 1.05 + 1e-6)
      << "D-Tucker err " << err_dt << " vs ALS err " << err_als;
}

TEST(DTuckerTest, FourOrderTensor) {
  Tensor x = MakeLowRankTensor({12, 10, 6, 5}, {2, 2, 2, 2}, 0.0, 5);
  Result<TuckerDecomposition> dec = DTucker(x, MakeOptions({2, 2, 2, 2}));
  ASSERT_TRUE(dec.ok());
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-12);
}

TEST(DTuckerTest, StatsArePopulated) {
  Tensor x = MakeLowRankTensor({15, 15, 10}, {3, 3, 3}, 0.1, 6);
  TuckerStats stats;
  Result<TuckerDecomposition> dec =
      DTucker(x, MakeOptions({3, 3, 3}), &stats);
  ASSERT_TRUE(dec.ok());
  EXPECT_GT(stats.preprocess_seconds, 0.0);
  EXPECT_GE(stats.iterations, 1);
  EXPECT_FALSE(stats.error_history.empty());
  EXPECT_GT(stats.working_bytes, 0u);
  // Compressed representation smaller than the raw tensor.
  EXPECT_LT(stats.working_bytes, x.ByteSize());
}

TEST(DTuckerTest, ErrorProxyDecreasesMonotonically) {
  Tensor x = MakeLowRankTensor({18, 16, 14}, {6, 6, 6}, 0.4, 7);
  DTuckerOptions opt = MakeOptions({3, 3, 3}, 8);
  opt.tucker.tolerance = 0.0;
  TuckerStats stats;
  ASSERT_TRUE(DTucker(x, opt, &stats).ok());
  for (std::size_t i = 1; i < stats.error_history.size(); ++i) {
    EXPECT_LE(stats.error_history[i], stats.error_history[i - 1] + 1e-10);
  }
}

TEST(DTuckerTest, DeterministicInSeed) {
  Tensor x = MakeLowRankTensor({14, 12, 10}, {3, 3, 3}, 0.2, 8);
  Result<TuckerDecomposition> a = DTucker(x, MakeOptions({3, 3, 3}));
  Result<TuckerDecomposition> b = DTucker(x, MakeOptions({3, 3, 3}));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(AlmostEqual(a.value().core, b.value().core, 0.0));
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_TRUE(AlmostEqual(a.value().factors[n], b.value().factors[n], 0.0));
  }
}

TEST(DTuckerTest, InitializeOnlyIsReasonable) {
  Tensor x = MakeLowRankTensor({20, 18, 12}, {3, 3, 3}, 0.1, 9);
  SliceApproximationOptions sopt;
  sopt.slice_rank = 3;
  Result<SliceApproximation> approx = ApproximateSlices(x, sopt);
  ASSERT_TRUE(approx.ok());
  Result<TuckerDecomposition> init =
      DTuckerInitializeOnly(approx.value(), MakeOptions({3, 3, 3}));
  ASSERT_TRUE(init.ok());
  // Init alone should already capture most of the signal energy.
  EXPECT_LT(init.value().RelativeErrorAgainst(x), 0.1);

  // Full iterations should not be worse.
  Result<TuckerDecomposition> full =
      DTuckerFromApproximation(approx.value(), MakeOptions({3, 3, 3}));
  ASSERT_TRUE(full.ok());
  EXPECT_LE(full.value().RelativeErrorAgainst(x),
            init.value().RelativeErrorAgainst(x) + 1e-9);
}

TEST(DTuckerTest, InitRangeFinderCapturesTheTopEnergy) {
  // A1/A2 come from a randomized range finder over the stacked slice
  // factors B = [F_l S_l]. The energy ||A^T B||^2 they capture is compared
  // with the exact top-k energy, the sum of the k largest eigenvalues of
  // B B^T that SuggestRanksFromApproximation computes from the full Gram.
  // Music's flat slice spectra are the hard case.
  for (const DatasetSpec& spec : BenchmarkDatasets()) {
    for (std::uint64_t seed : {1, 2, 3}) {
      const std::string what = spec.name + " seed " + std::to_string(seed);
      const Tensor x = MakeDataset(spec.name, 0.5, seed).ValueOrDie();
      SliceApproximationOptions sopt;
      sopt.slice_rank = 10;
      sopt.seed = seed;
      const SliceApproximation approx =
          ApproximateSlices(x, sopt).ValueOrDie();
      DTuckerOptions opt;
      for (Index n = 0; n < x.order(); ++n) {
        opt.tucker.ranks.push_back(std::min<Index>(10, x.dim(n)));
      }
      opt.tucker.seed = seed;
      const Result<TuckerDecomposition> init =
          DTuckerInitializeOnly(approx, opt);
      ASSERT_TRUE(init.ok()) << what << ": " << init.status().ToString();
      const Result<RankSuggestion> exact =
          SuggestRanksFromApproximation(approx, 1.0);
      ASSERT_TRUE(exact.ok()) << what;
      const double floor = spec.name == "music" ? 0.99 : 0.9999;
      for (int m = 0; m < 2; ++m) {
        const Matrix& a = init.value().factors[static_cast<std::size_t>(m)];
        double top = 0.0;
        for (Index i = 0; i < a.cols(); ++i) {
          top += exact.value().spectra[static_cast<std::size_t>(m)]
                                      [static_cast<std::size_t>(i)];
        }
        double captured = 0.0;
        for (const SliceSvd& sl : approx.slices) {
          const Matrix& f = m == 0 ? sl.u : sl.v;
          const Matrix p = MultiplyTN(a, f);
          for (Index j = 0; j < p.cols(); ++j) {
            const double sj = sl.s[static_cast<std::size_t>(j)];
            for (Index i = 0; i < p.rows(); ++i) {
              captured += p(i, j) * p(i, j) * sj * sj;
            }
          }
        }
        EXPECT_GE(captured / top, floor) << what << " mode " << m + 1;
      }
    }
  }
}

TEST(DTuckerTest, ApproximationReuseAcrossRanks) {
  // Compress once, decompose at several target ranks — the "query" usage.
  Tensor x = MakeLowRankTensor({20, 16, 12}, {6, 6, 6}, 0.2, 10);
  SliceApproximationOptions sopt;
  sopt.slice_rank = 6;
  Result<SliceApproximation> approx = ApproximateSlices(x, sopt);
  ASSERT_TRUE(approx.ok());

  double prev_err = 2.0;
  for (Index r : {2, 4, 6}) {
    Result<TuckerDecomposition> dec =
        DTuckerFromApproximation(approx.value(), MakeOptions({r, r, r}));
    ASSERT_TRUE(dec.ok());
    const double err = dec.value().RelativeErrorAgainst(x);
    EXPECT_LE(err, prev_err + 1e-10) << "rank " << r;
    prev_err = err;
  }
}

TEST(DTuckerTest, AutoReorderHandlesSmallLeadingModes) {
  // Shape deliberately puts the two largest modes last.
  Tensor base = MakeLowRankTensor({25, 20, 6}, {3, 3, 3}, 0.05, 11);
  Tensor x = base.Permuted({2, 0, 1});  // Now (6, 25, 20).
  DTuckerOptions opt = MakeOptions({3, 3, 3});
  opt.auto_reorder = true;
  Result<TuckerDecomposition> dec = DTucker(x, opt);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value().factors[0].rows(), 6);
  EXPECT_EQ(dec.value().factors[1].rows(), 25);
  EXPECT_EQ(dec.value().factors[2].rows(), 20);
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 0.02);
}

TEST(DTuckerTest, ApproximationValidateCatchesCorruption) {
  Tensor x = MakeLowRankTensor({12, 10, 6}, {3, 3, 3}, 0.1, 21);
  SliceApproximationOptions sopt;
  sopt.slice_rank = 3;
  SliceApproximation approx =
      ApproximateSlices(x, sopt).ValueOrDie();
  EXPECT_TRUE(approx.Validate().ok());

  SliceApproximation missing = approx;
  missing.slices.pop_back();
  EXPECT_FALSE(missing.Validate().ok());
  EXPECT_FALSE(
      DTuckerFromApproximation(missing, MakeOptions({3, 3, 3})).ok());

  SliceApproximation bad_shape = approx;
  bad_shape.slices[2].u = Matrix(11, 3);  // Wrong I1.
  EXPECT_FALSE(bad_shape.Validate().ok());

  SliceApproximation ragged = approx;
  ragged.slices[1].s.resize(2);  // Rank no longer matches u/v columns.
  EXPECT_FALSE(ragged.Validate().ok());
}

TEST(DTuckerTest, SuggestRanksFromApproximationMatchesRawSuggestion) {
  Tensor x = MakeLowRankTensor({24, 20, 16}, {4, 3, 5}, 0.0, 22);
  SliceApproximationOptions sopt;
  sopt.slice_rank = 8;  // Probe rank above the true rank.
  SliceApproximation approx = ApproximateSlices(x, sopt).ValueOrDie();

  Result<RankSuggestion> from_approx =
      SuggestRanksFromApproximation(approx, 1.0 - 1e-10);
  ASSERT_TRUE(from_approx.ok()) << from_approx.status().ToString();
  EXPECT_EQ(from_approx.value().ranks, (std::vector<Index>{4, 3, 5}));
}

TEST(DTuckerTest, SuggestRanksFromApproximationValidates) {
  Tensor x = MakeLowRankTensor({10, 9, 5}, {2, 2, 2}, 0.1, 23);
  SliceApproximationOptions sopt;
  sopt.slice_rank = 2;
  SliceApproximation approx = ApproximateSlices(x, sopt).ValueOrDie();
  EXPECT_FALSE(SuggestRanksFromApproximation(approx, 0.0).ok());
  EXPECT_FALSE(SuggestRanksFromApproximation(approx, 1.5).ok());
  Result<RankSuggestion> capped =
      SuggestRanksFromApproximation(approx, 1.0 - 1e-10, /*max_rank=*/1);
  ASSERT_TRUE(capped.ok());
  for (Index r : capped.value().ranks) EXPECT_EQ(r, 1);
}

TEST(DTuckerTest, ScaleInvariance) {
  Tensor x = MakeLowRankTensor({16, 14, 12}, {3, 3, 3}, 0.2, 20);
  Tensor x_small = x;
  x_small *= 1e-8;
  DTuckerOptions opt = MakeOptions({3, 3, 3});
  Result<TuckerDecomposition> a = DTucker(x, opt);
  Result<TuckerDecomposition> b = DTucker(x_small, opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a.value().RelativeErrorAgainst(x),
              b.value().RelativeErrorAgainst(x_small), 1e-9);
}

TEST(DTuckerTest, SliceRankDefaultsToMaxLeadingRank) {
  DTuckerOptions opt;
  opt.tucker.ranks = {4, 7, 2};
  EXPECT_EQ(opt.EffectiveSliceRank(), 7);
  opt.slice_rank = 3;
  EXPECT_EQ(opt.EffectiveSliceRank(), 3);
}

TEST(DTuckerTest, HigherSliceRankDoesNotHurt) {
  Tensor x = MakeLowRankTensor({18, 16, 10}, {5, 5, 5}, 0.3, 12);
  DTuckerOptions coarse = MakeOptions({3, 3, 3}, 10);
  coarse.slice_rank = 3;
  DTuckerOptions fine = MakeOptions({3, 3, 3}, 10);
  fine.slice_rank = 8;
  Result<TuckerDecomposition> dc = DTucker(x, coarse);
  Result<TuckerDecomposition> df = DTucker(x, fine);
  ASSERT_TRUE(dc.ok() && df.ok());
  EXPECT_LE(df.value().RelativeErrorAgainst(x),
            dc.value().RelativeErrorAgainst(x) + 1e-6);
}

}  // namespace
}  // namespace dtucker
