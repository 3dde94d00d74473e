// Failure injection and degenerate-input robustness: all-zero data, zero
// slices (black video frames), single-slice tensors, constant tensors,
// dimension-1 modes. Every public solver must return cleanly (OK with a
// sane result, or a descriptive error) — never crash or emit NaN.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "baselines/registry.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/tensor_io.h"
#include "dtucker/dtucker.h"
#include "dtucker/engine.h"
#include "dtucker/online_dtucker.h"
#include "dtucker/out_of_core.h"
#include "tensor/tensor_utils.h"
#include "tucker/tucker_als.h"

namespace dtucker {
namespace {

bool DecompositionIsFinite(const TuckerDecomposition& dec) {
  if (ContainsNonFinite(dec.core)) return false;
  for (const auto& f : dec.factors) {
    for (Index i = 0; i < f.size(); ++i) {
      if (!std::isfinite(f.data()[i])) return false;
    }
  }
  return true;
}

TEST(RobustnessTest, AllZeroTensor) {
  Tensor x({10, 9, 8});  // Zeros.
  DTuckerOptions dopt;
  dopt.tucker.ranks = {2, 2, 2};
  dopt.tucker.max_iterations = 5;
  Result<TuckerDecomposition> dt = DTucker(x, dopt);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  EXPECT_TRUE(DecompositionIsFinite(dt.value()));
  EXPECT_NEAR(dt.value().core.FrobeniusNorm(), 0.0, 1e-12);

  TuckerAlsOptions aopt;
  aopt.ranks = {2, 2, 2};
  Result<TuckerDecomposition> als = TuckerAls(x, aopt);
  ASSERT_TRUE(als.ok());
  EXPECT_TRUE(DecompositionIsFinite(als.value()));
}

TEST(RobustnessTest, ZeroSlicesWithinSignal) {
  // Black frames inside a video: some slices are exactly zero.
  Tensor x = MakeLowRankTensor({14, 12, 10}, {3, 3, 3}, 0.1, 1);
  Matrix zero(14, 12);
  for (Index l : {0, 4, 9}) x.SetFrontalSlice(l, zero);

  DTuckerOptions opt;
  opt.tucker.ranks = {3, 3, 3};
  opt.tucker.max_iterations = 10;
  Result<TuckerDecomposition> dec = DTucker(x, opt);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_TRUE(DecompositionIsFinite(dec.value()));
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 0.2);
}

TEST(RobustnessTest, ConstantTensor) {
  Tensor x({8, 8, 8});
  for (Index i = 0; i < x.size(); ++i) x.data()[i] = 3.5;
  DTuckerOptions opt;
  opt.tucker.ranks = {1, 1, 1};  // A constant tensor is exactly rank 1.
  opt.tucker.max_iterations = 5;
  Result<TuckerDecomposition> dec = DTucker(x, opt);
  ASSERT_TRUE(dec.ok());
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-10);
}

TEST(RobustnessTest, SingleSliceTensor) {
  // I3 = 1: the slice grid has exactly one slice.
  Tensor x = MakeLowRankTensor({12, 10, 1}, {2, 2, 1}, 0.05, 2);
  DTuckerOptions opt;
  opt.tucker.ranks = {2, 2, 1};
  opt.tucker.max_iterations = 5;
  Result<TuckerDecomposition> dec = DTucker(x, opt);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 0.05);
}

TEST(RobustnessTest, DimensionOneTrailingMode) {
  // Order-4 tensor with a singleton mode.
  Tensor x = MakeLowRankTensor({10, 9, 1, 6}, {2, 2, 1, 2}, 0.0, 3);
  DTuckerOptions opt;
  opt.tucker.ranks = {2, 2, 1, 2};
  opt.tucker.max_iterations = 5;
  Result<TuckerDecomposition> dec = DTucker(x, opt);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-10);
}

TEST(RobustnessTest, RankOneEverything) {
  Tensor x = MakeLowRankTensor({6, 5, 4}, {1, 1, 1}, 0.0, 4);
  for (TuckerMethod m : AllTuckerMethods()) {
    MethodOptions opt;
    opt.tucker.ranks = {1, 1, 1};
    opt.tucker.max_iterations = 10;
    opt.mach_sample_rate = 1.0;
    opt.sketch_factor = 16.0;
    Result<MethodRun> run = RunTuckerMethod(m, x, opt);
    ASSERT_TRUE(run.ok()) << TuckerMethodName(m);
    EXPECT_TRUE(DecompositionIsFinite(run.value().decomposition))
        << TuckerMethodName(m);
    EXPECT_LT(run.value().relative_error, 0.15) << TuckerMethodName(m);
  }
}

TEST(RobustnessTest, TinyValuesDoNotUnderflowToGarbage) {
  Tensor x = MakeLowRankTensor({10, 9, 8}, {2, 2, 2}, 0.1, 5);
  x *= 1e-150;
  DTuckerOptions opt;
  opt.tucker.ranks = {2, 2, 2};
  opt.tucker.max_iterations = 5;
  Result<TuckerDecomposition> dec = DTucker(x, opt);
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(DecompositionIsFinite(dec.value()));
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 0.1);
}

TEST(RobustnessTest, LargeValuesInsideTheRescaleBandKeepTheirAccuracy) {
  // Slices up to 1e100 are not rescaled; their cores' squared column norms
  // pass 1e300, which the core SVD must survive without losing accuracy.
  const Tensor base = MakeLowRankTensor({20, 16, 8}, {3, 3, 3}, 0.1, 7);
  DTuckerOptions opt;
  opt.tucker.ranks = {3, 3, 3};
  opt.tucker.max_iterations = 5;
  Result<TuckerDecomposition> ref = DTucker(base, opt);
  ASSERT_TRUE(ref.ok());
  const double ref_error = ref.value().RelativeErrorAgainst(base);
  for (double scale : {1e90, 1e-90}) {
    Tensor x = base;
    x *= scale;
    Result<TuckerDecomposition> dec = DTucker(x, opt);
    ASSERT_TRUE(dec.ok());
    EXPECT_TRUE(DecompositionIsFinite(dec.value()));
    EXPECT_NEAR(dec.value().RelativeErrorAgainst(x), ref_error,
                1e-6 * ref_error)
        << "scale " << scale;
  }
}

TEST(RobustnessTest, HugeValuesDoNotOverflow) {
  Tensor x = MakeLowRankTensor({10, 9, 8}, {2, 2, 2}, 0.1, 6);
  x *= 1e120;  // Squared norms reach 1e246 — still finite in double.
  DTuckerOptions opt;
  opt.tucker.ranks = {2, 2, 2};
  opt.tucker.max_iterations = 5;
  Result<TuckerDecomposition> dec = DTucker(x, opt);
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(DecompositionIsFinite(dec.value()));
}

TEST(RobustnessTest, OnlineWithZeroChunk) {
  OnlineDTuckerOptions opt;
  opt.dtucker.tucker.ranks = {2, 2, 2};
  opt.dtucker.tucker.max_iterations = 5;
  OnlineDTucker online(opt);
  Tensor first = MakeLowRankTensor({10, 8, 6}, {2, 2, 2}, 0.1, 7);
  ASSERT_TRUE(online.Initialize(first).ok());
  Tensor zeros({10, 8, 4});
  ASSERT_TRUE(online.Append(zeros).ok());
  EXPECT_TRUE(DecompositionIsFinite(online.decomposition()));
  EXPECT_EQ(online.shape()[2], 10);
}

TEST(RobustnessTest, NonFiniteSliceIsRejectedEverywhere) {
  // D-Tucker checks every slice as it compresses it, whatever
  // validate_input says: memory and file input, any thread count, and the
  // Engine's file entry point.
  const std::string path = ::testing::TempDir() + "/nonfinite.dtnsr";
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    Tensor x = MakeLowRankTensor({24, 20, 12}, {3, 3, 3}, 0.1, 31);
    x(7, 3, 5) = bad;  // Slice 5.
    ASSERT_TRUE(SaveTensor(x, path).ok());
    for (int threads : {1, 4}) {
      DTuckerOptions opt;
      opt.tucker.ranks = {3, 3, 3};
      opt.num_threads = threads;
      Result<TuckerDecomposition> mem = DTucker(x, opt);
      Result<TuckerDecomposition> file = DTuckerFromFile(path, opt);
      for (const Result<TuckerDecomposition>* r : {&mem, &file}) {
        ASSERT_FALSE(r->ok()) << "bad=" << bad << " threads=" << threads;
        EXPECT_EQ(r->status().code(), StatusCode::kInvalidArgument);
        if (threads == 1) {
          EXPECT_NE(r->status().message().find("slice 5"), std::string::npos)
              << r->status().ToString();
        }
      }
    }
    EngineOptions eopt;
    eopt.method_options.tucker.ranks = {3, 3, 3};
    Engine engine(std::move(eopt));
    Result<EngineRun> run = engine.SolveFile(path);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    std::remove(path.c_str());

    // An online append of the bad chunk is refused too.
    OnlineDTuckerOptions oopt;
    oopt.dtucker.tucker.ranks = {3, 3, 3};
    OnlineDTucker online(oopt);
    ASSERT_TRUE(online.Initialize(
        MakeLowRankTensor({24, 20, 6}, {3, 3, 3}, 0.1, 32)).ok());
    Tensor chunk = MakeLowRankTensor({24, 20, 4}, {3, 3, 3}, 0.1, 33);
    chunk(2, 2, 1) = bad;
    EXPECT_EQ(online.Append(chunk).code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace dtucker
