// Stress tests for the matricization-free iteration phase: ModeGram vs.
// Gram-of-Unfold equivalence over a shape sweep, Unfold/Fold roundtrips
// covering the mode-0 fast path, and bitwise thread-determinism of
// ModeGram, the carrier/projected-core slice kernels, one HOOI sweep, and
// the full DTucker pipeline (factors and core identical across 1/2/8
// threads). Runs under both `ctest -L tsan`
// (-DDTUCKER_SANITIZE=thread) and `ctest -L asan`
// (-DDTUCKER_SANITIZE=address).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "dtucker/dtucker.h"
#include "dtucker/slice_approximation.h"
#include "linalg/blas.h"
#include "linalg/svd.h"
#include "rsvd/rsvd.h"
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
  z.ResizeTo({3, 3, approx.NumSlices()});
  internal_dtucker::BuildProjectedCoreInto(approx.slices, a1, a2, 1.0,
                                           z.data());
  // The kernels run their slices serially; with more BLAS threads the
  // per-slice GEMMs thread internally (16: more workers than columns).
  for (int threads : {2, 8, 16}) {
    SetBlasThreads(threads);
    Tensor u1, u2, w;
    internal_dtucker::BuildModeOneCarrierInto(approx.slices, 14, a2, 1.0,
                                              &u1);
    internal_dtucker::BuildModeTwoCarrierInto(approx.slices, 12, a1, 1.0,
                                              &u2);
    w.ResizeTo(z.shape());
    internal_dtucker::BuildProjectedCoreInto(approx.slices, a1, a2, 1.0,
                                             w.data());
    EXPECT_TRUE(BitwiseEqualTensor(t1, u1)) << "threads " << threads;
    EXPECT_TRUE(BitwiseEqualTensor(t2, u2)) << "threads " << threads;
    EXPECT_TRUE(BitwiseEqualTensor(z, w)) << "threads " << threads;
  }
}

TEST_F(DTuckerStressTest, SweepBitwiseDeterministicAcrossThreads) {
  const std::vector<Index> shape = {16, 15, 4, 3};
  const std::vector<Index> ranks = {5, 4, 3, 2};
  SliceApproximation approx = MakeApprox(shape, 6, 23);

  // Initialization plus one sweep, at `threads` solver threads and BLAS
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

// The slice compressor runs slices through groups of kRsvdGroupSize,
// one slice per SIMD lane of the batched core SVD. A slice's bits must
// not depend on which group or lane it lands in, so any split of the
// slices into ranges (threads, ranks, online appends) is bitwise equal.
bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

bool SameSliceBits(const SliceSvd& a, const SliceSvd& b) {
  return SameBits(a.u, b.u) && SameBits(a.v, b.v) && a.s.size() == b.s.size() &&
         std::memcmp(a.s.data(), b.s.data(), a.s.size() * sizeof(double)) == 0;
}

Tensor LaneTestTensor() {
  // 21 slices: groups of 8, 8 and 5 over the whole range.
  Tensor x({30, 22, 21});
  Rng rng(71);
  for (Index l = 0; l < x.NumFrontalSlices(); ++l) {
    const Index r = 2 + l % 7;
    Matrix slice = Multiply(Matrix::GaussianRandom(30, r, rng),
                            Matrix::GaussianRandom(r, 22, rng));
    slice += Matrix::GaussianRandom(30, 22, rng) * 0.05;
    x.SetFrontalSlice(l, slice);
  }
  return x;
}

TEST(SliceRsvdLaneTest, RangeSplitsAreBitwiseEqual) {
  const Tensor x = LaneTestTensor();
  const Index num_slices = x.NumFrontalSlices();
  for (int q : {0, 1, 2}) {
    for (double tolerance : {0.0, 0.01}) {
      SliceApproximationOptions opt;
      opt.slice_rank = 6;
      opt.power_iterations = q;
      opt.adaptive_tolerance = tolerance;
      Result<std::vector<SliceSvd>> whole =
          ApproximateSliceRange(x, 0, num_slices, opt);
      ASSERT_TRUE(whole.ok());
      for (Index step : {1, 3, 5}) {
        for (Index first = 0; first < num_slices; first += step) {
          const Index count = std::min(step, num_slices - first);
          Result<std::vector<SliceSvd>> part =
              ApproximateSliceRange(x, first, count, opt);
          ASSERT_TRUE(part.ok());
          for (Index i = 0; i < count; ++i) {
            EXPECT_TRUE(SameSliceBits(
                part.value()[static_cast<std::size_t>(i)],
                whole.value()[static_cast<std::size_t>(first + i)]))
                << "q=" << q << " tol=" << tolerance << " step=" << step
                << " slice " << first + i;
          }
        }
      }
      // Threads split the range by rank: same bits again.
      opt.num_threads = 3;
      Result<SliceApproximation> threaded = ApproximateSlices(x, opt);
      ASSERT_TRUE(threaded.ok());
      for (Index l = 0; l < num_slices; ++l) {
        EXPECT_TRUE(SameSliceBits(threaded.value().slices[l],
                                  whole.value()[static_cast<std::size_t>(l)]))
            << "threads, slice " << l;
      }
    }
  }
}

TEST(SliceRsvdLaneTest, RandomizedSvdOfASliceMatchesTheCompressor) {
  const Tensor x = LaneTestTensor();
  SliceApproximationOptions opt;
  opt.slice_rank = 6;
  Result<std::vector<SliceSvd>> whole =
      ApproximateSliceRange(x, 0, x.NumFrontalSlices(), opt);
  ASSERT_TRUE(whole.ok());
  for (Index l = 0; l < x.NumFrontalSlices(); ++l) {
    RsvdOptions ro;
    ro.rank = opt.slice_rank;
    ro.oversampling = opt.oversampling;
    ro.power_iterations = opt.power_iterations;
    ro.seed = opt.seed + static_cast<uint64_t>(l) * 0x9E3779B9ULL;
    SvdResult svd = RandomizedSvd(x.FrontalSlice(l), ro);
    EXPECT_TRUE(SameSliceBits(SliceSvd{svd.u, svd.s, svd.v},
                              whole.value()[static_cast<std::size_t>(l)]))
        << "slice " << l;
  }
}

TEST(SliceRsvdLaneTest, IdenticalSlicesGetIndependentSketches) {
  // A shared test matrix would give identical slices identical bits (and
  // make every slice of a shared row space miss the same directions).
  Rng rng(72);
  Matrix slice = Multiply(Matrix::GaussianRandom(40, 8, rng),
                          Matrix::GaussianRandom(8, 30, rng));
  slice += Matrix::GaussianRandom(40, 30, rng) * 0.3;
  Tensor x({40, 30, 6});
  for (Index l = 0; l < 6; ++l) x.SetFrontalSlice(l, slice);
  SliceApproximationOptions opt;
  opt.slice_rank = 5;
  Result<std::vector<SliceSvd>> approx = ApproximateSliceRange(x, 0, 6, opt);
  ASSERT_TRUE(approx.ok());
  EXPECT_FALSE(SameSliceBits(approx.value()[0], approx.value()[1]));
  SvdResult best = ThinSvd(slice);
  best.Truncate(5);
  const double optimal = (slice - best.Reconstruct()).SquaredNorm();
  for (const SliceSvd& sl : approx.value()) {
    EXPECT_LT((slice - sl.Reconstruct()).SquaredNorm(), 1.5 * optimal);
  }
}

}  // namespace
}  // namespace dtucker
