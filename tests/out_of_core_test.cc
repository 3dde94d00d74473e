#include "dtucker/out_of_core.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "data/generators.h"
#include "data/tensor_file.h"
#include "data/tensor_io.h"

namespace dtucker {
namespace {

// A path under the test temp directory that belongs to the running test
// alone (its suite, name and process id), so cases run in parallel
// processes never write or remove each other's files.
std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + std::to_string(::getpid()) + "." + name;
}

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    x_ = MakeLowRankTensor({18, 15, 4, 3}, {3, 3, 2, 2}, 0.1, 1);
    path_ = TempPath("ooc.dtnsr");
    ASSERT_TRUE(SaveTensor(x_, path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Tensor x_;
  std::string path_;
};

TEST_F(OutOfCoreTest, ReaderHeaderMatches) {
  Result<TensorFileReader> reader = TensorFileReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().shape(), x_.shape());
  EXPECT_EQ(reader.value().NumFrontalSlices(), x_.NumFrontalSlices());
}

TEST_F(OutOfCoreTest, SlicesMatchInMemoryTensor) {
  Result<TensorFileReader> reader = TensorFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  for (Index l = 0; l < x_.NumFrontalSlices(); ++l) {
    Result<Matrix> slice = reader.value().ReadFrontalSlice(l);
    ASSERT_TRUE(slice.ok());
    EXPECT_TRUE(AlmostEqual(slice.value(), x_.FrontalSlice(l), 0.0))
        << "slice " << l;
  }
}

TEST_F(OutOfCoreTest, MultiSliceReadIsContiguous) {
  Result<TensorFileReader> reader = TensorFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  std::vector<double> buf(static_cast<std::size_t>(18 * 15 * 3));
  ASSERT_TRUE(reader.value().ReadFrontalSlices(2, 3, buf.data()).ok());
  for (Index l = 0; l < 3; ++l) {
    Matrix expected = x_.FrontalSlice(l + 2);
    for (Index i = 0; i < 18 * 15; ++i) {
      EXPECT_EQ(buf[static_cast<std::size_t>(l * 18 * 15 + i)],
                expected.data()[i]);
    }
  }
}

TEST_F(OutOfCoreTest, ReadBoundsChecked) {
  Result<TensorFileReader> reader = TensorFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.value().ReadFrontalSlice(-1).ok());
  EXPECT_FALSE(reader.value().ReadFrontalSlice(12).ok());
}

// The fixture tensor at magnitudes inside the slice compressor's rescale
// band (1) and far outside it (1e-150, 1e150), where the rescale changes
// the bits.
constexpr double kScales[] = {1.0, 1e-150, 1e150};

TEST_F(OutOfCoreTest, StreamedApproximationBitIdenticalToInMemory) {
  SliceApproximationOptions opt;
  opt.slice_rank = 3;
  for (double scale : kScales) {
    Tensor x = x_;
    x *= scale;
    const std::string path = TempPath("ooc_scaled.dtnsr");
    ASSERT_TRUE(SaveTensor(x, path).ok());
    Result<SliceApproximation> in_mem = ApproximateSlices(x, opt);
    Result<std::vector<SliceSvd>> streamed = ApproximateSliceRangeFromFile(
        path, 0, x.NumFrontalSlices(), opt);
    std::remove(path.c_str());
    ASSERT_TRUE(in_mem.ok()) << in_mem.status().ToString();
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ASSERT_EQ(in_mem.value().slices.size(), streamed.value().size());
    for (std::size_t l = 0; l < streamed.value().size(); ++l) {
      const SliceSvd& a = in_mem.value().slices[l];
      const SliceSvd& b = streamed.value()[l];
      EXPECT_TRUE(AlmostEqual(a.u, b.u, 0.0)) << scale << " slice " << l;
      EXPECT_TRUE(AlmostEqual(a.v, b.v, 0.0)) << scale << " slice " << l;
      EXPECT_EQ(a.s, b.s) << scale << " slice " << l;
    }
  }
}

TEST_F(OutOfCoreTest, EndToEndDecompositionMatchesInMemory) {
  DTuckerOptions opt;
  opt.tucker.ranks = {3, 3, 2, 2};
  opt.tucker.max_iterations = 8;
  for (double scale : kScales) {
    Tensor x = x_;
    x *= scale;
    const std::string path = TempPath("ooc_scaled.dtnsr");
    ASSERT_TRUE(SaveTensor(x, path).ok());
    TuckerStats file_stats;
    Result<TuckerDecomposition> from_file =
        DTuckerFromFile(path, opt, &file_stats);
    std::remove(path.c_str());
    Result<TuckerDecomposition> from_mem = DTucker(x, opt);
    ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
    ASSERT_TRUE(from_mem.ok()) << from_mem.status().ToString();
    const TuckerDecomposition& f = from_file.value();
    const TuckerDecomposition& m = from_mem.value();
    EXPECT_TRUE(AlmostEqual(f.core, m.core, 0.0)) << scale;
    ASSERT_EQ(f.factors.size(), m.factors.size());
    for (std::size_t n = 0; n < f.factors.size(); ++n) {
      EXPECT_TRUE(AlmostEqual(f.factors[n], m.factors[n], 0.0))
          << scale << " factor " << n;
    }
    EXPECT_GT(file_stats.preprocess_seconds, 0.0);
    EXPECT_LT(f.RelativeErrorAgainst(x), 0.05) << scale;
  }
}

TEST(TensorFileWriterTest, StreamedWriteReadRoundTrip) {
  const std::string path = TempPath("writer.dtnsr");
  Result<TensorFileWriter> writer =
      TensorFileWriter::Create(path, {5, 4, 6});
  ASSERT_TRUE(writer.ok());
  TensorFileWriter w = std::move(writer).ValueOrDie();
  Rng rng(11);
  Tensor expected({5, 4, 6});
  for (Index l = 0; l < 6; ++l) {
    Matrix slice = Matrix::GaussianRandom(5, 4, rng);
    expected.SetFrontalSlice(l, slice);
    ASSERT_TRUE(w.AppendSlice(slice).ok());
  }
  ASSERT_TRUE(w.Finish().ok());

  // The streamed file is byte-compatible with LoadTensor.
  Result<Tensor> loaded = LoadTensor(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(AlmostEqual(loaded.value(), expected, 0.0));
  std::remove(path.c_str());
}

TEST(TensorFileWriterTest, Validates) {
  EXPECT_FALSE(TensorFileWriter::Create("/tmp/x.dtnsr", {4}).ok());
  EXPECT_FALSE(TensorFileWriter::Create("/tmp/x.dtnsr", {4, 0, 2}).ok());

  const std::string path = TempPath("writer2.dtnsr");
  Result<TensorFileWriter> writer =
      TensorFileWriter::Create(path, {3, 3, 2});
  ASSERT_TRUE(writer.ok());
  TensorFileWriter w = std::move(writer).ValueOrDie();
  EXPECT_FALSE(w.AppendSlice(Matrix(2, 3)).ok());  // Wrong shape.
  EXPECT_FALSE(w.Finish().ok());                   // Slices missing.
  Matrix slice(3, 3);
  ASSERT_TRUE(w.AppendSlice(slice).ok());
  ASSERT_TRUE(w.AppendSlice(slice).ok());
  EXPECT_FALSE(w.AppendSlice(slice).ok());  // Too many.
  EXPECT_TRUE(w.Finish().ok());
  EXPECT_FALSE(w.Finish().ok());  // Already closed.
  std::remove(path.c_str());
}

TEST(OutOfCoreErrorsTest, MissingAndCorruptFiles) {
  SliceApproximationOptions opt;
  opt.slice_rank = 2;
  EXPECT_FALSE(
      ApproximateSliceRangeFromFile("/no/such.dtnsr", 0, 1, opt).ok());

  // A matrix (order 2) file: reader opens it, but out-of-core D-Tucker
  // requires order >= 3.
  const std::string path = TempPath("matrix.dtnsr");
  Rng rng(2);
  Tensor m = Tensor::GaussianRandom({6, 6}, rng);
  ASSERT_TRUE(SaveTensor(m, path).ok());
  EXPECT_FALSE(ApproximateSliceRangeFromFile(path, 0, 0, opt).ok());
  std::remove(path.c_str());

  // Truncated payload is rejected at Open.
  const std::string tpath = TempPath("trunc2.dtnsr");
  Tensor t = MakeLowRankTensor({8, 8, 4}, {2, 2, 2}, 0.0, 3);
  ASSERT_TRUE(SaveTensor(t, tpath).ok());
  ASSERT_EQ(truncate(tpath.c_str(), 200), 0);
  EXPECT_FALSE(TensorFileReader::Open(tpath).ok());
  std::remove(tpath.c_str());
}

}  // namespace
}  // namespace dtucker
