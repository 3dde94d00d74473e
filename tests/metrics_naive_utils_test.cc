// Tests for tucker/naive_tucker and tensor/tensor_utils.
#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.h"
#include "dtucker/dtucker.h"
#include "tensor/tensor_utils.h"
#include "tucker/naive_tucker.h"
#include "tucker/tucker_als.h"

namespace dtucker {
namespace {

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

TEST(TensorUtilsTest, MaxAbs) {
  Tensor a({2, 2, 1});
  a(0, 0, 0) = 2;
  a(1, 1, 0) = -3;
  EXPECT_EQ(MaxAbs(a), 3);
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
