#include "dtucker/online_dtucker.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"

namespace dtucker {
namespace {

OnlineDTuckerOptions MakeOptions(std::vector<Index> ranks) {
  OnlineDTuckerOptions opt;
  opt.dtucker.tucker.ranks = std::move(ranks);
  opt.dtucker.tucker.max_iterations = 10;
  opt.refit_sweeps = 3;
  return opt;
}

TEST(OnlineDTuckerTest, RequiresInitializeFirst) {
  OnlineDTucker online(MakeOptions({2, 2, 2}));
  Rng rng(1);
  Tensor chunk = Tensor::GaussianRandom({4, 4, 2}, rng);
  EXPECT_EQ(online.Append(chunk).code(), StatusCode::kFailedPrecondition);
}

TEST(OnlineDTuckerTest, InitializeValidates) {
  OnlineDTucker online(MakeOptions({2, 2}));
  Rng rng(2);
  Tensor x = Tensor::GaussianRandom({4, 4}, rng);
  EXPECT_FALSE(online.Initialize(x).ok());

  OnlineDTucker online3(MakeOptions({9, 2, 2}));
  Tensor y = Tensor::GaussianRandom({4, 4, 4}, rng);
  EXPECT_FALSE(online3.Initialize(y).ok());
}

TEST(OnlineDTuckerTest, DoubleInitializeRejected) {
  OnlineDTucker online(MakeOptions({2, 2, 2}));
  Tensor x = MakeLowRankTensor({8, 8, 6}, {2, 2, 2}, 0.0, 3);
  ASSERT_TRUE(online.Initialize(x).ok());
  EXPECT_EQ(online.Initialize(x).code(), StatusCode::kFailedPrecondition);
}

TEST(OnlineDTuckerTest, AppendShapeChecked) {
  OnlineDTucker online(MakeOptions({2, 2, 2}));
  Tensor x = MakeLowRankTensor({8, 8, 6}, {2, 2, 2}, 0.0, 4);
  ASSERT_TRUE(online.Initialize(x).ok());
  Rng rng(5);
  Tensor bad = Tensor::GaussianRandom({8, 7, 2}, rng);
  EXPECT_FALSE(online.Append(bad).ok());
  Tensor bad_order = Tensor::GaussianRandom({8, 8, 2, 2}, rng);
  EXPECT_FALSE(online.Append(bad_order).ok());
}

TEST(OnlineDTuckerTest, AppendGrowsShapeAndTracksData) {
  Tensor full = MakeLowRankTensor({12, 10, 16}, {3, 3, 3}, 0.1, 6);
  OnlineDTucker online(MakeOptions({3, 3, 3}));
  ASSERT_TRUE(online.Initialize(full.LastModeSlice(0, 8)).ok());
  EXPECT_EQ(online.shape()[2], 8);
  ASSERT_TRUE(online.Append(full.LastModeSlice(8, 4)).ok());
  EXPECT_EQ(online.shape()[2], 12);
  ASSERT_TRUE(online.Append(full.LastModeSlice(12, 4)).ok());
  EXPECT_EQ(online.shape()[2], 16);
  EXPECT_EQ(online.approximation().NumSlices(), 16);

  // Final decomposition approximates the full tensor well.
  EXPECT_LT(online.decomposition().RelativeErrorAgainst(full), 0.05);
}

TEST(OnlineDTuckerTest, MatchesBatchQuality) {
  Tensor full = MakeLowRankTensor({14, 12, 20}, {3, 3, 3}, 0.2, 7);
  OnlineDTucker online(MakeOptions({3, 3, 3}));
  ASSERT_TRUE(online.Initialize(full.LastModeSlice(0, 10)).ok());
  ASSERT_TRUE(online.Append(full.LastModeSlice(10, 10)).ok());

  DTuckerOptions batch_opt;
  batch_opt.tucker.ranks = {3, 3, 3};
  batch_opt.tucker.max_iterations = 10;
  Result<TuckerDecomposition> batch = DTucker(full, batch_opt);
  ASSERT_TRUE(batch.ok());

  const double online_err = online.decomposition().RelativeErrorAgainst(full);
  const double batch_err = batch.value().RelativeErrorAgainst(full);
  EXPECT_LT(online_err, batch_err + 0.02)
      << "online " << online_err << " vs batch " << batch_err;
}

TEST(OnlineDTuckerTest, AppendOnlyCompressesNewSlices) {
  Tensor full = MakeLowRankTensor({30, 26, 24}, {3, 3, 3}, 0.1, 8);
  OnlineDTucker online(MakeOptions({3, 3, 3}));
  ASSERT_TRUE(online.Initialize(full.LastModeSlice(0, 20)).ok());
  const std::vector<SliceSvd> before = online.approximation().slices;
  ASSERT_EQ(before.size(), 20u);
  ASSERT_TRUE(online.Append(full.LastModeSlice(20, 4)).ok());
  ASSERT_EQ(online.approximation().NumSlices(), 24);
  // The 20 existing slices are reused bit for bit: recompressing them
  // would draw from the append's own seed stream and change their bits.
  auto same_bits = [](const double* a, const double* b, std::size_t n) {
    return std::memcmp(a, b, n * sizeof(double)) == 0;
  };
  for (std::size_t l = 0; l < before.size(); ++l) {
    const SliceSvd& was = before[l];
    const SliceSvd& now = online.approximation().slices[l];
    ASSERT_EQ(now.u.size(), was.u.size()) << "slice " << l;
    ASSERT_EQ(now.v.size(), was.v.size()) << "slice " << l;
    ASSERT_EQ(now.s.size(), was.s.size()) << "slice " << l;
    EXPECT_TRUE(same_bits(now.u.data(), was.u.data(),
                          static_cast<std::size_t>(was.u.size())))
        << "slice " << l;
    EXPECT_TRUE(same_bits(now.s.data(), was.s.data(), was.s.size()))
        << "slice " << l;
    EXPECT_TRUE(same_bits(now.v.data(), was.v.data(),
                          static_cast<std::size_t>(was.v.size())))
        << "slice " << l;
  }
}

TEST(OnlineDTuckerTest, FourOrderStream) {
  Tensor full = MakeLowRankTensor({10, 9, 4, 12}, {2, 2, 2, 2}, 0.0, 9);
  OnlineDTucker online(MakeOptions({2, 2, 2, 2}));
  ASSERT_TRUE(online.Initialize(full.LastModeSlice(0, 6)).ok());
  ASSERT_TRUE(online.Append(full.LastModeSlice(6, 6)).ok());
  EXPECT_EQ(online.shape()[3], 12);
  EXPECT_LT(online.decomposition().RelativeErrorAgainst(full), 1e-8);
}

}  // namespace
}  // namespace dtucker
