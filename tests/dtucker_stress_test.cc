// Stress tests for the matricization-free iteration phase: ModeGram vs.
// Gram-of-Unfold equivalence over a shape sweep, Unfold/Fold roundtrips
// covering the mode-0 fast path, and bitwise thread-determinism of
// ModeGram, the carrier/projected-core slice kernels, one HOOI sweep, and
// the full DTucker pipeline (factors and core identical across 1/2/8
// threads). Runs under both `ctest -L tsan`
// (-DDTUCKER_SANITIZE=thread) and `ctest -L asan`
// (-DDTUCKER_SANITIZE=address).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "dtucker/dtucker.h"
#include "dtucker/slice_approximation.h"
#include "linalg/blas.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace dtucker {
namespace {

bool BitwiseEqualMatrix(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) {
      if (a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

bool BitwiseEqualTensor(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (Index i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

class DTuckerStressTest : public ::testing::Test {
 protected:
  void TearDown() override { SetBlasThreads(1); }
};

// Shapes covering every mode position (first / middle / last), odd sizes,
// singleton modes, orders 3-5, and back-slab counts on both sides of the
// fixed chunk count.
const std::vector<std::vector<Index>> kGramShapes = {
    {4, 5, 6},       {7, 3, 2},    {5, 5, 5},     {1, 6, 4},  {6, 1, 4},
    {6, 4, 1},       {3, 4, 2, 5}, {2, 3, 4, 5},  {9, 2, 11}, {4, 3, 2, 2, 3},
    {16, 12, 20},    {8, 8, 3},    {13, 7, 2, 4},
};

TEST_F(DTuckerStressTest, ModeGramMatchesGramOfUnfold) {
  Rng rng(7);
  for (const auto& shape : kGramShapes) {
    Tensor x = Tensor::GaussianRandom(shape, rng);
    for (Index mode = 0; mode < x.order(); ++mode) {
      Matrix g = ModeGram(x, mode);
      Matrix unf = Unfold(x, mode);
      Matrix ref(unf.rows(), unf.rows());
      Gemm(Trans::kNo, Trans::kYes, 1.0, unf, unf, 0.0, &ref);
      ASSERT_EQ(g.rows(), x.dim(mode));
      ASSERT_EQ(g.cols(), x.dim(mode));
      double scale = std::max(1.0, ref.MaxAbs());
      for (Index j = 0; j < g.cols(); ++j) {
        for (Index i = 0; i < g.rows(); ++i) {
          EXPECT_NEAR(g(i, j), ref(i, j), 1e-12 * scale)
              << "shape " << x.ShapeString() << " mode " << mode << " at ("
              << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST_F(DTuckerStressTest, ModeGramBitwiseDeterministicAcrossThreads) {
  Rng rng(11);
  for (const auto& shape : kGramShapes) {
    Tensor x = Tensor::GaussianRandom(shape, rng);
    for (Index mode = 0; mode < x.order(); ++mode) {
      SetBlasThreads(1);
      Matrix g1 = ModeGram(x, mode);
      for (int threads : {2, 8}) {
        SetBlasThreads(threads);
        Matrix gt = ModeGram(x, mode);
        EXPECT_TRUE(BitwiseEqualMatrix(g1, gt))
            << "shape " << x.ShapeString() << " mode " << mode << " threads "
            << threads;
      }
      SetBlasThreads(1);
    }
  }
}

TEST_F(DTuckerStressTest, UnfoldFoldRoundtripEveryMode) {
  Rng rng(13);
  for (const auto& shape : kGramShapes) {
    Tensor x = Tensor::GaussianRandom(shape, rng);
    for (Index mode = 0; mode < x.order(); ++mode) {
      // Mode 0 exercises the layout-preserving memcpy fast path.
      Matrix unf = Unfold(x, mode);
      Tensor back = Fold(unf, mode, x.shape());
      EXPECT_TRUE(BitwiseEqualTensor(x, back))
          << "shape " << x.ShapeString() << " mode " << mode;
    }
  }
}

SliceApproximation MakeApprox(const std::vector<Index>& shape, Index js,
                              uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::GaussianRandom(shape, rng);
  SliceApproximationOptions opt;
  opt.slice_rank = js;
  Result<SliceApproximation> approx = ApproximateSlices(x, opt);
  EXPECT_TRUE(approx.ok());
  return std::move(approx).value();
}

TEST_F(DTuckerStressTest, CarrierBuildersBitwiseDeterministicAcrossThreads) {
  const std::vector<Index> shape = {14, 12, 5, 2};
  SliceApproximation approx = MakeApprox(shape, 4, 17);
  Rng rng(19);
  Matrix a1 = Matrix::GaussianRandom(14, 3, rng);
  Matrix a2 = Matrix::GaussianRandom(12, 3, rng);

  SetBlasThreads(1);
  Tensor t1, t2, z;
  internal_dtucker::BuildModeOneCarrierInto(approx.slices, 14, a2, 1.0, &t1);
  internal_dtucker::BuildModeTwoCarrierInto(approx.slices, 12, a1, 1.0, &t2);
  internal_dtucker::BuildProjectedCoreInto(approx.slices, a1, a2, 1.0, &z);
  // The kernels run their slices serially; with more BLAS threads the
  // per-slice GEMMs thread internally (16: more workers than columns).
  for (int threads : {2, 8, 16}) {
    SetBlasThreads(threads);
    Tensor u1, u2, w;
    internal_dtucker::BuildModeOneCarrierInto(approx.slices, 14, a2, 1.0,
                                              &u1);
    internal_dtucker::BuildModeTwoCarrierInto(approx.slices, 12, a1, 1.0,
                                              &u2);
    internal_dtucker::BuildProjectedCoreInto(approx.slices, a1, a2, 1.0, &w);
    EXPECT_TRUE(BitwiseEqualTensor(t1, u1)) << "threads " << threads;
    EXPECT_TRUE(BitwiseEqualTensor(t2, u2)) << "threads " << threads;
    EXPECT_TRUE(BitwiseEqualTensor(z, w)) << "threads " << threads;
  }
}

TEST_F(DTuckerStressTest, SweepBitwiseDeterministicAcrossThreads) {
  const std::vector<Index> shape = {16, 15, 4, 3};
  const std::vector<Index> ranks = {5, 4, 3, 2};
  SliceApproximation approx = MakeApprox(shape, 6, 23);

  // Initialization plus one sweep, at `threads` threads (ranks) and BLAS
  // threads.
  auto run = [&](int threads) {
    SetBlasThreads(threads);
    DTuckerOptions opt;
    opt.tucker.ranks = ranks;
    opt.tucker.max_iterations = 1;
    opt.num_threads = threads;
    Result<TuckerDecomposition> dec = DTuckerFromApproximation(approx, opt);
    EXPECT_TRUE(dec.ok());
    return std::move(dec).value();
  };

  TuckerDecomposition ref = run(1);
  for (int threads : {2, 8}) {
    TuckerDecomposition got = run(threads);
    for (std::size_t n = 0; n < ref.factors.size(); ++n) {
      EXPECT_TRUE(BitwiseEqualMatrix(ref.factors[n], got.factors[n]))
          << "factor " << n << " threads " << threads;
    }
    EXPECT_TRUE(BitwiseEqualTensor(ref.core, got.core))
        << "threads " << threads;
  }
}

TEST_F(DTuckerStressTest, FullDTuckerBitwiseDeterministicAcrossThreads) {
  Rng rng(29);
  Tensor x = Tensor::GaussianRandom({18, 16, 6, 2}, rng);

  auto run = [&](int threads) {
    SetBlasThreads(threads);
    DTuckerOptions opt;
    opt.tucker.ranks = {5, 4, 3, 2};
    opt.slice_rank = 6;
    opt.tucker.max_iterations = 4;
    opt.num_threads = threads;
    Result<TuckerDecomposition> dec = DTucker(x, opt);
    EXPECT_TRUE(dec.ok());
    return std::move(dec).value();
  };

  TuckerDecomposition ref = run(1);
  for (int threads : {2, 8}) {
    TuckerDecomposition got = run(threads);
    ASSERT_EQ(ref.factors.size(), got.factors.size());
    for (std::size_t n = 0; n < ref.factors.size(); ++n) {
      EXPECT_TRUE(BitwiseEqualMatrix(ref.factors[n], got.factors[n]))
          << "factor " << n << " threads " << threads;
    }
    EXPECT_TRUE(BitwiseEqualTensor(ref.core, got.core))
        << "threads " << threads;
  }
}

TEST_F(DTuckerStressTest, ModeProductIntoReusesAndMatchesModeProduct) {
  Rng rng(31);
  Tensor x = Tensor::GaussianRandom({9, 7, 5, 3}, rng);
  Tensor out;
  for (Index mode = 0; mode < x.order(); ++mode) {
    Matrix u = Matrix::GaussianRandom(x.dim(mode), 4, rng);
    Tensor ref = ModeProduct(x, u, mode, Trans::kYes);
    // Reuse the same workspace tensor across modes (shape changes).
    ModeProductInto(x, u, mode, Trans::kYes, &out);
    EXPECT_TRUE(BitwiseEqualTensor(ref, out)) << "mode " << mode;
  }
}

}  // namespace
}  // namespace dtucker
